/**
 * @file
 * perfbench: the measured benchmark of the check path, dracod socket
 * serving, and tenant churn. See perfbench/README.md.
 *
 *   perfbench --workload <check_inproc|serve_socket|tenant_churn>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <path>] [--scratch-dir <dir>]
 *             [--corrupt-verdict]
 *             [--commit <id>] [--source-digest <hex>]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 the per-layer ones.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hash/crc64.hh"
#include "workloads.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define PERFBENCH_CPUID 1
#endif

using namespace perfbench;

namespace {

/** CPU brand string from CPUID, whitespace-normalized. */
std::string
cpuBrand()
{
#ifdef PERFBENCH_CPUID
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) &&
        eax >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i + 0],
                        &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        char raw[sizeof regs + 1] = {};
        std::memcpy(raw, regs, sizeof regs);
        std::string brand;
        for (const char *p = raw; *p; ++p) {
            if (*p == ' ' && (brand.empty() || brand.back() == ' '))
                continue;
            if (*p != '"' && *p != '\\')
                brand.push_back(*p);
        }
        while (!brand.empty() && brand.back() == ' ')
            brand.pop_back();
        if (!brand.empty())
            return brand;
    }
#endif
    return "unknown";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<check_inproc|serve_socket|tenant_churn> --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH] "
                 "[--corrupt-verdict]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--spans-out")
            o.spansOut = value();
        else if (arg == "--scratch-dir")
            o.scratchDir = value();
        else if (arg == "--corrupt-verdict")
            o.corruptVerdict = true;
        else if (arg == "--commit")
            o.commit = value();
        else if (arg == "--source-digest")
            o.sourceDigest = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    Result result;
    if (options.workload == "check_inproc")
        runCheckInproc(options, result);
    else if (options.workload == "serve_socket")
        runServeSocket(options, result);
    else if (options.workload == "tenant_churn")
        runTenantChurn(options, result);
    else
        usage(("unknown workload " + options.workload).c_str());

    // Provenance: keeps numbers from different builds or hosts apart.
    std::printf("provenance: {\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"flags\": \"%s\", \"crc64_engine\": \"%s\", "
                "\"cpu\": \"%s\", \"nproc\": %ld, \"commit\": \"%s\", "
                "\"source_digest\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_FLAGS,
                draco::crc64EngineName(), cpuBrand().c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), options.commit.c_str(),
                options.sourceDigest.c_str(), options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    for (const auto &[key, value] : result.notes)
        std::printf("note: %s = %s\n", key.c_str(), value.c_str());
    const std::vector<Metric> &shown =
        options.trace ? result.perLayer : result.endToEnd;
    for (const Metric &m : shown)
        std::printf("metric: %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printMetrics(shown);
    std::printf("}}\n");
    return 0;
}
