/**
 * @file
 * Construction of the seven evaluated contention managers.
 *
 * The paper's evaluation matrix (Figs. 4-5, Table 4) compares:
 * Backoff, PTS, ATS, BFGTS-SW, BFGTS-HW, BFGTS-HW/Backoff and
 * BFGTS-NoOverhead. CmKind enumerates them; makeManager() builds one.
 */

#ifndef BFGTS_CM_FACTORY_H
#define BFGTS_CM_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "cm/ats.h"
#include "cm/backoff.h"
#include "cm/bfgts.h"
#include "cm/pts.h"
#include "cm/reactive.h"

namespace cm {

/**
 * The contention managers available. The first seven are the paper's
 * evaluation matrix; Timestamp and Polka are the classic reactive
 * managers from the paper's background section, kept out of the
 * paper-table benches but available as extra baselines.
 */
enum class CmKind {
    Backoff,
    Pts,
    Ats,
    BfgtsSw,
    BfgtsHw,
    BfgtsHwBackoff,
    BfgtsNoOverhead,
    Timestamp,
    Polka,
};

/** The paper's seven managers, in its presentation order. */
std::vector<CmKind> allCmKinds();

/** Every manager, including the reactive extras. */
std::vector<CmKind> extendedCmKinds();

/** Display name matching the paper's figures. */
const char *cmKindName(CmKind kind);

/** Parse a display name back to a kind; fatal on unknown names. */
CmKind cmKindFromName(const std::string &name);

/** True for the four BFGTS variants. */
bool isBfgts(CmKind kind);

/** Per-manager tunables used by the factory. */
struct CmTuning {
    BackoffConfig backoff;
    AtsConfig ats;
    PtsConfig pts;
    BfgtsConfig bfgts; // variant field is overwritten by the factory
};

/**
 * Build a contention manager.
 *
 * @param kind     Which manager.
 * @param ids      Transaction ID space of the program under test.
 * @param services CPU Table/scheduler/RNG/predictors (predictors
 *                 required for the HW variants).
 * @param tuning   Tunables (defaults are the paper's settings).
 */
std::unique_ptr<ContentionManager>
makeManager(CmKind kind, const htm::TxIdSpace &ids,
            const Services &services, const CmTuning &tuning = {});

} // namespace cm

#endif // BFGTS_CM_FACTORY_H
