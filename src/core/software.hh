/**
 * @file
 * The software implementation of Draco (§V-C).
 *
 * Draco-in-software hooks the kernel's syscall entry point: it indexes
 * the (software) SPT with the syscall ID, and either allows immediately
 * (Valid bit set, no argument checks), probes the VAT for the hashed
 * argument key, or falls back to executing the Seccomp filter and — on
 * success — caches the validated set in the VAT. Profiles are
 * stateless, so a past validation never needs repeating (§V).
 *
 * The checker reports *what happened* (path, hashed key bytes,
 * executed filter instructions) and prices nothing; sim/pricer.cc
 * prices those events. This is draco_check, which dracod links.
 */

#ifndef DRACO_CORE_SOFTWARE_HH
#define DRACO_CORE_SOFTWARE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/checkspec.hh"
#include "core/vat.hh"
#include "seccomp/filter_builder.hh"
#include "seccomp/profile.hh"

namespace draco::core {

/** Which path a software-Draco check took. */
enum class SwPath {
    SptAllowAll,   ///< SPT Valid bit, no argument checking configured.
    VatHit,        ///< Argument set found already validated.
    FilterAllowed, ///< Filter ran and allowed; VAT updated.
    FilterDenied,  ///< Filter ran and denied.
};

/** Events of one software-Draco check, for semantic + timing use. */
struct SwCheckOutcome {
    bool allowed = false;
    SwPath path = SwPath::FilterDenied;
    unsigned hashedBytes = 0;  ///< Key bytes each hash function consumed.
    uint64_t filterInsns = 0;  ///< BPF instructions executed (all copies).
    bool vatInserted = false;  ///< A new set was cached.
    bool vatEvicted = false;   ///< Insertion displaced a victim.
};

/** Running totals over a checker's lifetime. */
struct SwCheckStats {
    uint64_t checks = 0;
    uint64_t sptAllowAll = 0;
    uint64_t vatHits = 0;
    uint64_t filterRuns = 0;
    uint64_t denials = 0;
    uint64_t filterInsns = 0;
    uint64_t vatInsertions = 0;
};

/** Export a software-checker counter block under @p prefix. */
void exportStats(const SwCheckStats &stats, MetricRegistry &registry,
                 const std::string &prefix);

/**
 * One entry of the dense software SPT (§V-A): the Valid bit, the
 * Argument Bitmask, and for an argument-checking syscall the position
 * of its table in the checker's VAT, the counterpart of the paper's
 * Base field.
 */
struct SptEntry {
    uint64_t bitmask = 0;
    Vat::TableIndex vatTable = Vat::kNoTable;
    bool valid = false;
};

/**
 * The immutable, shareable compile of one profile: the policy itself,
 * its compiled fallback filter chain, and the derived per-syscall
 * check specs (the SPT template). The specs are also laid out once
 * for every checker: `spt` is the dense sid-indexed SPT, and
 * `argSpecs` lists the argument-checking specs in ascending sid order,
 * one VAT table each, so a checker's VAT table k belongs to
 * argSpecs[k]. Everything here is read-only after
 * construction and FilterChain::run() is const and stateless, so one
 * CompiledPolicy may back any number of checkers across any number of
 * threads — in real fleets most tenants run the identical
 * docker-default profile (§II), and sharing the compile turns a
 * million per-tenant copies into one.
 *
 * programKey is the CRC-64 (ECMA) of the canonical program bytes —
 * the content address the lifecycle subsystem dedups and snapshots
 * against.
 */
struct CompiledPolicy {
    seccomp::Profile profile;
    seccomp::DispatchShape shape;
    seccomp::FilterChain filter;
    std::map<uint16_t, CheckSpec> specs;
    std::vector<SptEntry> spt;        ///< Indexed by sid; max sid + 1.
    std::vector<CheckSpec> argSpecs;  ///< The VAT layout, ascending sid.
    uint64_t programKey = 0;

    CompiledPolicy(const seccomp::Profile &profile_,
                   seccomp::DispatchShape shape_);

    /** @return @p sid's SPT entry, or nullptr when its Valid bit is clear. */
    const SptEntry *
    sptEntry(uint16_t sid) const
    {
        return sid < spt.size() && spt[sid].valid ? &spt[sid] : nullptr;
    }

    /**
     * Run the fallback filter once per attached copy (2 model
     * syscall-complete-2x, §IV-A). @return The copies' agreed action
     * and the instructions all copies executed.
     */
    seccomp::BpfResult runFilter(const os::SeccompData &data,
                                 unsigned copies) const;

    /** Compile @p profile into a shareable policy. */
    static std::shared_ptr<const CompiledPolicy> compile(
        const seccomp::Profile &profile,
        seccomp::DispatchShape shape = seccomp::DispatchShape::Linear);
};

/**
 * CRC-64 (ECMA) over the canonical bytes of a compiled filter chain:
 * program count, then per program its instruction count and each
 * instruction as (code, jt, jf, k) little-endian. Two chains share a
 * key iff they are instruction-identical.
 */
uint64_t filterProgramKey(const seccomp::FilterChain &chain);

/**
 * Kernel-resident software Draco for one process.
 */
class DracoSoftwareChecker
{
  public:
    /**
     * @param profile Policy to enforce (copied).
     * @param filter_copies Attached filter count: 1 normally, 2 models
     *        the syscall-complete-2x configuration (§IV-A).
     * @param shape Dispatch shape of the compiled fallback filter.
     */
    explicit DracoSoftwareChecker(
        const seccomp::Profile &profile, unsigned filter_copies = 1,
        seccomp::DispatchShape shape = seccomp::DispatchShape::Linear);

    /**
     * Share a pre-compiled policy instead of compiling privately —
     * the VAT and counters stay per-checker (copy-on-write state);
     * the profile, filter, and specs are the shared immutable part.
     */
    explicit DracoSoftwareChecker(
        std::shared_ptr<const CompiledPolicy> policy,
        unsigned filter_copies = 1);

    /** Check one system call at kernel entry. */
    SwCheckOutcome check(const os::SyscallRequest &req);

    /** @return The process's VAT. */
    const Vat &vat() const { return _vat; }

    /** @return Mutable VAT — snapshot restore repopulates it in place. */
    Vat &mutableVat() { return _vat; }

    /** @return The enforced profile. */
    const seccomp::Profile &profile() const { return _policy->profile; }

    /** @return The compiled fallback filter chain. */
    const seccomp::FilterChain &filter() const { return _policy->filter; }

    /** @return The shared compiled policy backing this checker. */
    const std::shared_ptr<const CompiledPolicy> &policy() const
    {
        return _policy;
    }

    /** @return Lifetime counters. */
    const SwCheckStats &stats() const { return _stats; }

    /** Replace the lifetime counters (snapshot restore). */
    void restoreStats(const SwCheckStats &stats) { _stats = stats; }

    /** Export checker counters and the VAT's `vat` group under @p prefix. */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

    /**
     * Attach @p tracer (nullptr detaches): each check() records an
     * SwCheck instant carrying the path it took (arg = obs::FlowCode),
     * filter executions record FilterRun with the instruction count,
     * and the VAT reports its insertions on the same track.
     */
    void setTracer(obs::Tracer *tracer);

  private:
    std::shared_ptr<const CompiledPolicy> _policy;
    unsigned _filterCopies;
    Vat _vat;
    SwCheckStats _stats;
    obs::Tracer *_tracer = nullptr;
};

} // namespace draco::core

#endif // DRACO_CORE_SOFTWARE_HH
