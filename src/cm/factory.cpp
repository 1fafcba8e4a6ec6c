#include "factory.h"

#include "sim/logging.h"

namespace cm {

std::vector<CmKind>
allCmKinds()
{
    return {CmKind::Backoff,        CmKind::Pts,
            CmKind::Ats,            CmKind::BfgtsSw,
            CmKind::BfgtsHw,        CmKind::BfgtsHwBackoff,
            CmKind::BfgtsNoOverhead};
}

std::vector<CmKind>
extendedCmKinds()
{
    std::vector<CmKind> kinds = allCmKinds();
    kinds.push_back(CmKind::Timestamp);
    kinds.push_back(CmKind::Polka);
    return kinds;
}

const char *
cmKindName(CmKind kind)
{
    switch (kind) {
      case CmKind::Backoff:
        return "Backoff";
      case CmKind::Pts:
        return "PTS";
      case CmKind::Ats:
        return "ATS";
      case CmKind::BfgtsSw:
        return "BFGTS-SW";
      case CmKind::BfgtsHw:
        return "BFGTS-HW";
      case CmKind::BfgtsHwBackoff:
        return "BFGTS-HW/Backoff";
      case CmKind::BfgtsNoOverhead:
        return "BFGTS-NoOverhead";
      case CmKind::Timestamp:
        return "Timestamp";
      case CmKind::Polka:
        return "Polka";
    }
    return "?";
}

CmKind
cmKindFromName(const std::string &name)
{
    for (CmKind kind : extendedCmKinds()) {
        if (name == cmKindName(kind))
            return kind;
    }
    sim_fatal("unknown contention manager '%s'", name.c_str());
}

bool
isBfgts(CmKind kind)
{
    switch (kind) {
      case CmKind::BfgtsSw:
      case CmKind::BfgtsHw:
      case CmKind::BfgtsHwBackoff:
      case CmKind::BfgtsNoOverhead:
        return true;
      default:
        return false;
    }
}

std::unique_ptr<ContentionManager>
makeManager(CmKind kind, const htm::TxIdSpace &ids,
            const Services &services, const CmTuning &tuning)
{
    switch (kind) {
      case CmKind::Backoff:
        return std::make_unique<BackoffManager>(services, tuning.backoff);
      case CmKind::Timestamp:
        return std::make_unique<TimestampManager>(services);
      case CmKind::Polka:
        return std::make_unique<PolkaManager>(services);
      case CmKind::Ats:
        return std::make_unique<AtsManager>(ids.numStaticTx(), services,
                                            tuning.ats);
      case CmKind::Pts:
        return std::make_unique<PtsManager>(ids, services, tuning.pts);
      case CmKind::BfgtsSw:
      case CmKind::BfgtsHw:
      case CmKind::BfgtsHwBackoff:
      case CmKind::BfgtsNoOverhead: {
        BfgtsConfig config = tuning.bfgts;
        switch (kind) {
          case CmKind::BfgtsSw:
            config.variant = BfgtsVariant::Sw;
            break;
          case CmKind::BfgtsHw:
            config.variant = BfgtsVariant::Hw;
            break;
          case CmKind::BfgtsHwBackoff:
            config.variant = BfgtsVariant::HwBackoff;
            break;
          default:
            config.variant = BfgtsVariant::NoOverhead;
            break;
        }
        return std::make_unique<BfgtsManager>(ids, services, config);
      }
    }
    sim_panic("unhandled CmKind");
}

} // namespace cm
