/**
 * @file
 * The hardware implementation of Draco (§VI): a per-core engine that
 * combines the hardware SPT, SLB, STB, and Temporary Buffer, preloads
 * the SLB when a system call enters the ROB, and resolves the check
 * when it reaches the ROB head — reporting which of the paper's six
 * execution flows (Table I) the call took, plus every memory access the
 * flow performed, so the timing model can price it.
 *
 * The engine, its structures and core/smt.hh are draco_model, which
 * dracod never links. The engine reads a process's VAT by location, so
 * HwProcessContext assigns its tables' modeled addresses.
 */

#ifndef DRACO_CORE_HW_ENGINE_HH
#define DRACO_CORE_HW_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/checkspec.hh"
#include "core/hw_structures.hh"
#include "core/software.hh"
#include "core/vat.hh"
#include "obs/tracer.hh"
#include "seccomp/filter_builder.hh"

namespace draco::core {

/**
 * Per-process state the OS maintains for hardware Draco: the compiled
 * policy (profile, fallback filter, and check specs, the software SPT
 * image), the VAT, and the modeled addresses of both. The VAT takes
 * one region per context, its tables in table order and each rounded
 * up to whole pages.
 */
class HwProcessContext
{
  public:
    /**
     * @param profile Policy for this process (compiled privately).
     * @param filter_copies 1, or 2 for syscall-complete-2x.
     */
    explicit HwProcessContext(const seccomp::Profile &profile,
                              unsigned filter_copies = 1);

    /** @return The check spec for @p sid, or nullptr if disallowed. */
    const CheckSpec *spec(uint16_t sid) const;

    /** Export per-process state (the VAT) under @p prefix. */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

    /** @return The process's VAT. */
    Vat &vat() { return _vat; }
    const Vat &vat() const { return _vat; }

    /** Run the fallback filter; @return (allowed, instructions). */
    std::pair<bool, uint64_t> runFilter(const os::SyscallRequest &req);

    /** @return Synthetic address of the software SPT entry for @p sid. */
    uint64_t softSptAddress(uint16_t sid) const;

    /** @return Synthetic address of @p token's slot in @p sid's table. */
    uint64_t entryAddress(uint16_t sid, const VatToken &token) const;

    /** @return First address of the process's VAT region. */
    uint64_t vatRegionBegin() const { return _vatRegionBegin; }

    /** @return One past the last address of the VAT region. */
    uint64_t vatRegionEnd() const { return _vatRegionEnd; }

    /** Saved Accessed-bit SPT entries from the last switch-out. */
    std::vector<HwSptEntry> savedSpt;

  private:
    std::shared_ptr<const CompiledPolicy> _policy;
    unsigned _filterCopies;
    Vat _vat;
    std::vector<uint64_t> _tableOffset; ///< In the region, by TableIndex.
    uint64_t _vatRegionBegin = 0;
    uint64_t _vatRegionEnd = 0;
    uint64_t _softSptBase;
};

/** Classification of one hardware-checked system call. */
enum class HwFlow : uint8_t {
    IdOnly = 0,  ///< SPT Valid bit with empty bitmask; no SLB involved.
    F1 = 1,      ///< STB hit, preload hit, access hit (fast).
    F2 = 2,      ///< STB hit, preload hit, access miss (slow).
    F3 = 3,      ///< STB hit, preload miss, access hit (fast).
    F4 = 4,      ///< STB hit, preload miss, access miss (slow).
    F5 = 5,      ///< STB miss, access hit (fast).
    F6 = 6,      ///< STB miss, access miss (slow).
    Denied = 7,  ///< Filter ran and rejected the call.
};

/** Everything that happened while checking one system call. */
struct HwSyscallResult {
    bool allowed = false;
    HwFlow flow = HwFlow::Denied;
    bool stbHit = false;
    bool preloadHit = false;
    bool accessHit = false;

    bool filterRun = false;
    uint64_t filterInsns = 0;
    bool vatInserted = false;

    /** Memory reads issued while stalled at the ROB head. */
    std::vector<uint64_t> headMemAddrs;

    /** Memory reads issued during (hidden) preloading. */
    std::vector<uint64_t> preloadMemAddrs;

    /** @return true for the paper's fast flows (1, 3, 5, IdOnly). */
    bool fast() const
    {
        return flow == HwFlow::IdOnly || flow == HwFlow::F1 ||
            flow == HwFlow::F3 || flow == HwFlow::F5;
    }
};

/** Lifetime flow mix (Table I occupancy) and structure stats. */
struct HwEngineStats {
    std::array<uint64_t, 8> flows{}; ///< Indexed by HwFlow.
    uint64_t syscalls = 0;
    uint64_t contextSwitches = 0;
    uint64_t sptSavedEntries = 0;
    uint64_t sptRestoredEntries = 0;
    uint64_t squashes = 0;
};

/** @return Registry metric name of @p flow ("id_only", "f1", ...). */
const char *hwFlowMetricName(HwFlow flow);

/**
 * Export an engine counter block under @p prefix: syscall/context-
 * switch totals plus the Table-I occupancy as `flows.<name>` counters
 * and fast/slow aggregates.
 */
void exportStats(const HwEngineStats &stats, MetricRegistry &registry,
                 const std::string &prefix);

/**
 * Full geometry of one engine's hardware tables; defaults are Table II.
 * SMT partitions scale every structure down by the context count
 * (§VII-B).
 */
struct EngineGeometry {
    std::array<TableGeometry, Slb::kMaxArgc> slb = {{
        {32, 4}, {64, 4}, {64, 4}, {32, 4}, {32, 4}, {16, 4},
    }};
    unsigned stbEntries = Stb::kEntries;
    unsigned stbWays = Stb::kWays;
    unsigned sptEntries = HardwareSpt::kEntries;

    /**
     * @return The Table II geometry scaled down for one of
     *         @p contexts SMT partitions (associativity shrinks; set
     *         counts are preserved where possible).
     */
    static EngineGeometry smtPartition(unsigned contexts);
};

/**
 * Per-core Draco hardware.
 */
class DracoHardwareEngine
{
  public:
    /**
     * @param preload_enabled When false, the STB never triggers SLB
     *        preloading (the ablation of §XI-B's recommendation).
     */
    explicit DracoHardwareEngine(bool preload_enabled = true);

    /** Custom SLB geometry constructor (sizing ablation). */
    DracoHardwareEngine(bool preload_enabled,
                        const std::array<TableGeometry, Slb::kMaxArgc>
                            &slb_geometry);

    /** Full custom geometry constructor (SMT partitions). */
    DracoHardwareEngine(bool preload_enabled,
                        const EngineGeometry &geometry);

    /**
     * Make @p proc the running process on this core.
     *
     * Switching to a *different* process saves the Accessed-bit SPT
     * entries of the outgoing process (when @p spt_save_restore is on),
     * invalidates SLB/STB/SPT/Temporary Buffer, and restores the
     * incoming process's saved SPT entries. Rescheduling the same
     * process leaves everything intact (§VII-B).
     */
    void switchTo(HwProcessContext *proc, bool spt_save_restore = true);

    /** A system call instruction entered the ROB at @p pc. */
    void onDispatch(uint64_t pc);

    /** The speculative path was squashed; staged preloads vanish. */
    void onSquash();

    /** The system call reached the ROB head; resolve the check. */
    HwSyscallResult onRobHead(const os::SyscallRequest &req);

    /** Convenience: dispatch immediately followed by head resolution. */
    HwSyscallResult onSyscall(const os::SyscallRequest &req);

    /** @return The running process, or nullptr. */
    HwProcessContext *process() { return _proc; }

    /** @return SLB statistics (Fig. 13). */
    const SlbStats &slbStats() const { return _slb.stats(); }

    /** @return STB statistics (Fig. 13). */
    const StbStats &stbStats() const { return _stb.stats(); }

    /** @return Engine-level statistics. */
    const HwEngineStats &stats() const { return _stats; }

    /** @return The SLB (tests and ablations). */
    Slb &slb() { return _slb; }

    /** @return The STB (tests). */
    Stb &stb() { return _stb; }

    /** @return The hardware SPT (tests). */
    HardwareSpt &spt() { return _spt; }

    /** Periodic Accessed-bit sweep (the 500 µs timer, §VII-B). */
    void periodicAccessedClear() { _spt.clearAccessed(); }

    /**
     * Attach @p tracer (nullptr detaches): STB/SLB/Temporary Buffer/
     * SPT/context-switch events from this engine land on its track, and
     * the running process's VAT reports its insertions there too.
     */
    void setTracer(obs::Tracer *tracer);

    /**
     * Export the whole engine under @p prefix: engine counters and
     * flows, nested `slb`/`stb`/`spt` groups, and — when a process is
     * scheduled — its `vat` group.
     */
    void exportMetrics(MetricRegistry &registry,
                       const std::string &prefix) const;

  private:
    struct Pending {
        bool valid = false;
        uint64_t pc = 0;
        bool stbHit = false;
        bool preloadHit = false;
        std::vector<uint64_t> memAddrs;
    };

    HwProcessContext *_proc = nullptr;
    bool _preloadEnabled;
    HardwareSpt _spt;
    Slb _slb;
    Stb _stb;
    TemporaryBuffer _temp;
    Pending _pending;
    HwEngineStats _stats;
    obs::Tracer *_tracer = nullptr;
};

} // namespace draco::core

#endif // DRACO_CORE_HW_ENGINE_HH
