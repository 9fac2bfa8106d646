/**
 * @file
 * Cross-stack equivalence: for any profile and any request stream, four
 * deciders must agree — Profile::evaluate (ground truth), the compiled
 * BPF filter, software Draco, and hardware Draco. This is invariant 1
 * of DESIGN.md and the paper's correctness argument (§V: profiles are
 * stateless, so cached validations are sound).
 */

#include <gtest/gtest.h>

#include "core/hw_engine.hh"
#include "core/software.hh"
#include "seccomp/filter_builder.hh"
#include "seccomp/profile_gen.hh"
#include "seccomp/profiles_builtin.hh"
#include "support/random.hh"
#include "workload/generator.hh"

namespace draco {
namespace {

struct EquivCase {
    const char *profileKind; // builtin name or "app-complete"
    const char *workload;
};

// EquivCase has no printer, so gtest lists each case with the raw bytes
// of its two pointers, and ctest takes that listing as the test name.
// Keeping the profile kinds in one 256-byte-aligned block fixes the
// first printed byte, so the names do not move with the build type or
// with string literals added elsewhere in the binary.
struct alignas(256) ProfileKinds {
    char docker[16] = "docker";
    char gvisor[16] = "gvisor";
    char firecracker[16] = "firecracker";
    char appComplete[16] = "app-complete";
};
constexpr ProfileKinds kKinds{};

class EquivalenceTest : public testing::TestWithParam<EquivCase>
{
  protected:
    seccomp::Profile
    makeProfile() const
    {
        std::string kind = GetParam().profileKind;
        if (kind == "docker")
            return seccomp::dockerDefaultProfile();
        if (kind == "gvisor")
            return seccomp::gvisorProfile();
        if (kind == "firecracker")
            return seccomp::firecrackerProfile();
        // App-specific complete profile from a *short* recording so the
        // measured stream contains both hits and denials.
        const auto *app = workload::workloadByName(GetParam().workload);
        EXPECT_NE(app, nullptr);
        workload::TraceGenerator gen(*app, 5);
        seccomp::ProfileRecorder rec;
        for (int i = 0; i < 1500; ++i)
            rec.record(gen.next().req);
        return rec.makeComplete("app-complete");
    }
};

TEST_P(EquivalenceTest, FourWayAgreementOnWorkloadStream)
{
    const auto *app = workload::workloadByName(GetParam().workload);
    ASSERT_NE(app, nullptr);

    seccomp::Profile profile = makeProfile();
    seccomp::BpfProgram linear =
        buildFilter(profile, seccomp::DispatchShape::Linear);
    seccomp::BpfProgram tree =
        buildFilter(profile, seccomp::DispatchShape::BinaryTree);
    core::DracoSoftwareChecker sw(profile);
    core::HwProcessContext hwProc(profile);
    core::DracoHardwareEngine hw;
    hw.switchTo(&hwProc);

    workload::TraceGenerator gen(*app, 777);
    for (int i = 0; i < 5000; ++i) {
        os::SyscallRequest req = gen.next().req;
        bool truth = profile.allows(req);

        auto linearResult = linear.run(req.toSeccompData());
        EXPECT_EQ(os::actionAllows(static_cast<os::SeccompAction>(
                      linearResult.action)),
                  truth)
            << "linear filter, sid " << req.sid;

        auto treeResult = tree.run(req.toSeccompData());
        EXPECT_EQ(os::actionAllows(static_cast<os::SeccompAction>(
                      treeResult.action)),
                  truth)
            << "tree filter, sid " << req.sid;

        EXPECT_EQ(sw.check(req).allowed, truth)
            << "software draco, sid " << req.sid;
        EXPECT_EQ(hw.onSyscall(req).allowed, truth)
            << "hardware draco, sid " << req.sid;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EquivalenceTest,
    testing::Values(EquivCase{kKinds.docker, "httpd"},
                    EquivCase{kKinds.docker, "unixbench-syscall"},
                    EquivCase{kKinds.gvisor, "nginx"},
                    EquivCase{kKinds.gvisor, "pipe-ipc"},
                    EquivCase{kKinds.firecracker, "redis"},
                    EquivCase{kKinds.appComplete, "httpd"},
                    EquivCase{kKinds.appComplete, "elasticsearch"},
                    EquivCase{kKinds.appComplete, "mysql"},
                    EquivCase{kKinds.appComplete, "sysbench-fio"},
                    EquivCase{kKinds.appComplete, "mq-ipc"}),
    [](const testing::TestParamInfo<EquivCase> &info) {
        std::string name = std::string(info.param.profileKind) + "_" +
            info.param.workload;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Equivalence, FuzzedRequestsAgainstGvisor)
{
    seccomp::Profile profile = seccomp::gvisorProfile();
    seccomp::BpfProgram filter = buildFilter(profile);
    core::DracoSoftwareChecker sw(profile);
    core::HwProcessContext hwProc(profile);
    core::DracoHardwareEngine hw;
    hw.switchTo(&hwProc);

    Rng rng(31337);
    for (int i = 0; i < 15000; ++i) {
        os::SyscallRequest req;
        req.sid = static_cast<uint16_t>(rng.nextBelow(440));
        req.pc = 0x400000 + rng.nextBelow(1 << 20) * 4;
        for (auto &arg : req.args)
            arg = rng.chance(0.6) ? rng.nextBelow(40) : rng.next();

        bool truth = profile.allows(req);
        auto r = filter.run(req.toSeccompData());
        ASSERT_EQ(
            os::actionAllows(static_cast<os::SeccompAction>(r.action)),
            truth)
            << "filter, sid " << req.sid;
        ASSERT_EQ(sw.check(req).allowed, truth)
            << "sw draco, sid " << req.sid;
        ASSERT_EQ(hw.onSyscall(req).allowed, truth)
            << "hw draco, sid " << req.sid;
    }
}

TEST(Equivalence, HardwareAgreesUnderContextSwitchChurn)
{
    // Interleave two processes with different profiles on one core:
    // decisions must stay correct across invalidations/restores.
    seccomp::Profile pa = seccomp::gvisorProfile();
    seccomp::Profile pb = seccomp::firecrackerProfile();
    core::HwProcessContext ca(pa), cb(pb);
    core::DracoHardwareEngine engine;

    const auto *appA = workload::workloadByName("nginx");
    const auto *appB = workload::workloadByName("redis");
    workload::TraceGenerator genA(*appA, 1), genB(*appB, 2);

    Rng rng(9);
    for (int slice = 0; slice < 60; ++slice) {
        bool useA = slice % 2 == 0;
        engine.switchTo(useA ? &ca : &cb, rng.chance(0.5));
        auto &gen = useA ? genA : genB;
        const auto &profile = useA ? pa : pb;
        for (int i = 0; i < 100; ++i) {
            os::SyscallRequest req = gen.next().req;
            ASSERT_EQ(engine.onSyscall(req).allowed, profile.allows(req))
                << "slice " << slice << " sid " << req.sid;
        }
    }
}

} // namespace
} // namespace draco
