#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "sim/logging.h"

namespace workloads {

namespace {

/** Address-space layout: regions spaced far apart, never overlapping. */
constexpr mem::Addr kPrivateBase = 0x1'0000'0000ULL;
// Far above any private region: private regions span at most
// kPrivateBase + (threads * sites) << kRegionShift ~= 0x11'0000'0000.
constexpr mem::Addr kHotBase = 0x1000'0000'0000ULL;
constexpr int kRegionShift = 24; // 16M bytes between region bases
constexpr int kMaxSitesPerWorkload = 64;

} // namespace

SyntheticWorkload::SyntheticWorkload(SyntheticParams params,
                                     int num_threads)
    : params_(std::move(params)), numThreads_(num_threads)
{
    sim_assert(!params_.sites.empty());
    sim_assert(static_cast<int>(params_.sites.size())
               <= kMaxSitesPerWorkload);
    sim_assert(num_threads >= 1);
    for (const SiteParams &site : params_.sites) {
        sim_assert(site.weight >= 0.0);
        sim_assert(site.meanAccesses > site.accessJitter);
        sim_assert(site.privateLines > 0);
        double hot_total = 0.0;
        for (const HotGroupRef &ref : site.hotGroups) {
            sim_assert(ref.group >= 0
                       && ref.group < static_cast<int>(
                              params_.hotGroupLines.size()));
            sim_assert(params_.hotGroupLines[static_cast<std::size_t>(
                           ref.group)]
                       > 0);
            hot_total += ref.frac;
        }
        sim_assert(hot_total <= 1.0 + 1e-9);
        totalWeight_ += site.weight;
    }
    sim_assert(totalWeight_ > 0.0);
    prev_.resize(static_cast<std::size_t>(num_threads)
                 * params_.sites.size());
}

mem::Addr
SyntheticWorkload::privateBase(sim::ThreadId thread, int site) const
{
    const auto region = static_cast<mem::Addr>(thread)
                          * static_cast<mem::Addr>(
                              kMaxSitesPerWorkload)
                      + static_cast<mem::Addr>(site);
    return kPrivateBase + (region << kRegionShift);
}

mem::Addr
SyntheticWorkload::hotBase(int group)
{
    return kHotBase
         + (static_cast<mem::Addr>(group) << kRegionShift);
}

int
SyntheticWorkload::pickSite(sim::Rng &rng) const
{
    double roll = rng.uniform() * totalWeight_;
    for (std::size_t i = 0; i < params_.sites.size(); ++i) {
        roll -= params_.sites[i].weight;
        if (roll < 0.0)
            return static_cast<int>(i);
    }
    return static_cast<int>(params_.sites.size()) - 1;
}

SyntheticWorkload::PrevState &
SyntheticWorkload::prevFor(sim::ThreadId thread, int site)
{
    return prev_[static_cast<std::size_t>(thread)
                     * params_.sites.size()
                 + static_cast<std::size_t>(site)];
}

TxDescriptor
SyntheticWorkload::next(sim::ThreadId thread, sim::Rng &rng)
{
    sim_assert(thread >= 0 && thread < numThreads_);
    const int site = pickSite(rng);
    const SiteParams &sp =
        params_.sites[static_cast<std::size_t>(site)];
    PrevState &prev = prevFor(thread, site);
    prev.hotLines.resize(sp.hotGroups.size());

    const int jitter = sp.accessJitter;
    const int size = static_cast<int>(
        rng.range(sp.meanAccesses - jitter, sp.meanAccesses + jitter));

    TxDescriptor desc;
    desc.sTx = site;
    desc.workPerAccess = sp.workPerAccess;
    desc.nonTxWork = static_cast<sim::Cycles>(rng.range(
        static_cast<std::int64_t>(sp.nonTxWork / 2),
        static_cast<std::int64_t>(sp.nonTxWork + sp.nonTxWork / 2)));

    // Split the budget: hot lines per group ref, remainder private.
    // The scratch vectors are members, cleared here, so steady state
    // allocates only desc.accesses.
    early_.clear();    // reads / early private accesses
    upgrades_.clear(); // hot writes at the very end

    int private_budget = size;
    for (std::size_t g = 0; g < sp.hotGroups.size(); ++g) {
        const HotGroupRef &ref = sp.hotGroups[g];
        const std::uint64_t region_lines =
            params_.hotGroupLines[static_cast<std::size_t>(ref.group)];
        const int hot_lines = static_cast<int>(
            std::lround(ref.frac * static_cast<double>(size)));
        private_budget -= hot_lines;

        // Sticky slots hit the region's first lines -- the same
        // structural lines for every thread and every execution.
        const int sticky = static_cast<int>(
            std::lround(ref.stickyFrac
                        * static_cast<double>(hot_lines)));
        const std::uint64_t pool = std::min<std::uint64_t>(
            ref.stickyPoolLines, region_lines);
        const std::uint64_t span =
            region_lines > pool ? region_lines - pool : 1;
        std::vector<mem::Addr> &prev_lines = prev.hotLines[g];
        lines_.clear();
        for (int i = 0; i < hot_lines; ++i) {
            mem::Addr addr;
            const bool reuse = static_cast<std::size_t>(i)
                                   < prev_lines.size()
                            && rng.chance(sp.similarity);
            if (reuse) {
                addr = prev_lines[static_cast<std::size_t>(i)];
            } else if (i < sticky) {
                addr = hotBase(ref.group)
                     + rng.below(pool) * mem::kLineBytes;
            } else {
                addr = hotBase(ref.group)
                     + (pool + rng.below(span)) * mem::kLineBytes;
            }
            lines_.push_back(addr);
            // Read-early / write-late: every hot line is read up
            // front; written lines are upgraded at the end.
            early_.push_back({addr, false});
            if (rng.chance(ref.writeFraction))
                upgrades_.push_back({addr, true});
        }
        prev_lines.assign(lines_.begin(), lines_.end());
    }

    if (private_budget < 0)
        private_budget = 0;
    priv_.clear();
    for (int i = 0; i < private_budget; ++i) {
        const bool reuse = static_cast<std::size_t>(i)
                               < prev.priv.size()
                        && rng.chance(sp.similarity);
        if (reuse) {
            priv_.push_back(prev.priv[static_cast<std::size_t>(i)]);
        } else {
            TxAccess access;
            access.addr = privateBase(thread, site)
                        + rng.below(sp.privateLines)
                              * mem::kLineBytes;
            access.write = rng.chance(sp.writeFraction);
            priv_.push_back(access);
        }
    }
    prev.priv.assign(priv_.begin(), priv_.end());

    // Assemble: first half of private work, hot reads, second half
    // of private work, hot upgrades last.
    const auto half = static_cast<std::ptrdiff_t>(priv_.size() / 2);
    desc.accesses.reserve(priv_.size() + early_.size()
                          + upgrades_.size());
    desc.accesses.insert(desc.accesses.end(), priv_.begin(),
                         priv_.begin() + half);
    desc.accesses.insert(desc.accesses.end(), early_.begin(),
                         early_.end());
    desc.accesses.insert(desc.accesses.end(), priv_.begin() + half,
                         priv_.end());
    desc.accesses.insert(desc.accesses.end(), upgrades_.begin(),
                         upgrades_.end());

    return desc;
}

} // namespace workloads
