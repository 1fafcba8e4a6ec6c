#include "backoff.h"

#include <algorithm>

#include "sim/logging.h"

namespace cm {

AbortResponse
BackoffManager::onTxAbort(const TxInfo &tx, const TxInfo &other)
{
    (void)other;
    int &streak = streakFor(tx.thread);
    streak = std::min(streak + 1, config_.maxExponent);

    AbortResponse resp;
    sim_assert(services_.rng != nullptr);
    const sim::Cycles window = config_.baseWindow
                             << static_cast<unsigned>(streak);
    resp.backoff = services_.rng->below(window ? window : 1);
    return resp;
}

} // namespace cm
