#include "reactive.h"

#include <algorithm>

#include "sim/logging.h"

namespace cm {

AbortResponse
TimestampManager::onTxAbort(const TxInfo &, const TxInfo &)
{
    AbortResponse resp;
    sim_assert(services_.rng != nullptr);
    resp.backoff = services_.rng->below(
        std::max<sim::Cycles>(1, config_.abortBackoff * 2));
    return resp;
}

AbortResponse
PolkaManager::onTxAbort(const TxInfo &, const TxInfo &)
{
    AbortResponse resp;
    sim_assert(services_.rng != nullptr);
    resp.backoff = services_.rng->below(
        std::max<sim::Cycles>(1, config_.abortBackoff * 2));
    return resp;
}

} // namespace cm
