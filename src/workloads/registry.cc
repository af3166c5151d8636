/**
 * @file
 * Registry of all 35 evaluation programs plus cholesky.
 */

#include "workloads/workload.hh"

#include "workloads/boost_micro.hh"
#include "workloads/canneal.hh"
#include "workloads/cholesky.hh"
#include "workloads/generic_kernel.hh"
#include "workloads/histogram.hh"
#include "workloads/leveldb.hh"
#include "workloads/linear_regression.hh"
#include "workloads/lu_ncb.hh"
#include "workloads/server/feed_handler.hh"
#include "workloads/stringmatch.hh"

#include <tuple>

namespace tmi
{

namespace
{

/**
 * Factory binding constructor arguments. The arguments are captured
 * once in a shared tuple instead of a by-value lambda capture, so
 * copying the std::function (registry lookups hand WorkloadInfo
 * around by value in the driver) shares the bound state rather than
 * deep-copying it per copy.
 */
template <typename T, typename... Args>
WorkloadFactory
makeFactory(Args &&...args)
{
    auto held = std::make_shared<std::tuple<std::decay_t<Args>...>>(
        std::forward<Args>(args)...);
    return [held](const WorkloadParams &params) {
        return std::apply(
            [&params](const auto &...a) {
                return std::make_unique<T>(params, a...);
            },
            *held);
    };
}

std::vector<WorkloadInfo>
buildRegistry()
{
    std::vector<WorkloadInfo> reg;

    auto add = [&reg](std::string name, WorkloadFactory make,
                      bool known_false_sharing, bool in_overhead_set,
                      bool uses_atomics_or_asm,
                      ParamSchema schema = {}) {
        WorkloadInfo info;
        info.name = std::move(name);
        info.make = std::move(make);
        info.knownFalseSharing = known_false_sharing;
        info.inOverheadSet = in_overhead_set;
        info.usesAtomicsOrAsm = uses_atomics_or_asm;
        info.schema = std::move(schema);
        reg.push_back(std::move(info));
    };
    auto add_generic = [&add](const KernelSpec &spec,
                              bool uses_atomics_or_asm) {
        add(spec.name,
            [spec](const WorkloadParams &params) {
                return std::make_unique<GenericKernelWorkload>(params,
                                                               spec);
            },
            false, true, uses_atomics_or_asm);
    };

    // Figure 7 order: PARSEC, then Phoenix, then Splash2x, then
    // leveldb and the Boost microbenchmarks.
    const auto &specs = kernelSpecs();
    auto spec = [&specs](const char *name) -> const KernelSpec & {
        for (const auto &s : specs) {
            if (std::string(s.name) == name)
                return s;
        }
        fatal("unknown kernel spec '%s'", name);
    };

    add_generic(spec("blackscholes"), false);
    add_generic(spec("bodytrack"), false);
    add("canneal", makeFactory<CannealWorkload>(), false, true, true);
    add_generic(spec("dedup"), true);
    add_generic(spec("facesim"), false);
    add_generic(spec("ferret"), false);
    add_generic(spec("fluidanimate"), false);
    add_generic(spec("streamcluster"), false);
    add_generic(spec("swaptions"), false);

    add("histogram", makeFactory<HistogramWorkload>(false), true, true, false);
    add("histogramfs", makeFactory<HistogramWorkload>(true),
        true, true, false);
    add_generic(spec("kmeans"), false);
    add("lreg", makeFactory<LinearRegressionWorkload>(), true, true, false);
    add_generic(spec("matrix"), false);
    add_generic(spec("pca"), false);
    add_generic(spec("reverse"), false);
    add("stringmatch", makeFactory<StringMatchWorkload>(), true, true, false);
    add_generic(spec("wordcount"), false);

    add_generic(spec("barnes"), false);
    add_generic(spec("fft"), false);
    add_generic(spec("fmm"), false);
    add_generic(spec("lu-cb"), false);
    add("lu-ncb", makeFactory<LuNcbWorkload>(), true, true, false);
    add_generic(spec("ocean-cp"), false);
    add_generic(spec("ocean-ncp"), false);
    add_generic(spec("radiosity"), false);
    add_generic(spec("radix"), false);
    add_generic(spec("raytrace"), false);
    add_generic(spec("volrend"), false);
    add_generic(spec("water-nsquare"), false);
    add_generic(spec("water-spatial"), false);

    add("leveldb", makeFactory<LevelDbWorkload>(), true, true, true);
    // Declares small_slots, the malloc-placement sweep's knob.
    add("spinlockpool", makeFactory<SpinlockPoolWorkload>(), true, true,
        false, SpinlockPoolWorkload::schema());
    add("shptr-relaxed", makeFactory<SharedPtrWorkload>(false),
        true, true, true);
    add("shptr-lock", makeFactory<SharedPtrWorkload>(true), true, true, false);

    // cholesky: excluded from the timing set (section 4.1) but used
    // for the Figure 12 consistency case study.
    add("cholesky", makeFactory<CholeskyWorkload>(), false, false, true);

    // The server family: request/response feed handlers driven by
    // the open-loop traffic generator. Not part of the paper's
    // 35-workload overhead set; not in the Figure 9 set either (the
    // repairable cell -- packed stat counters -- is deliberate, but
    // the figure list is pinned to the paper). Atomics-based ring
    // protocols make them Sheriff-incompatible by design.
    auto add_feed = [&reg](const char *fname, bool spmc) {
        WorkloadInfo info;
        info.name = fname;
        info.make = makeFactory<FeedHandlerWorkload>(spmc);
        info.knownFalseSharing = false;
        info.inOverheadSet = false;
        info.usesAtomicsOrAsm = true;
        info.family = "server";
        info.schema = FeedHandlerWorkload::schema();
        reg.push_back(std::move(info));
    };
    add_feed("feed-spsc", false);
    add_feed("feed-spmc", true);

    return reg;
}

} // namespace

const std::vector<WorkloadInfo> &
workloadRegistry()
{
    static const std::vector<WorkloadInfo> registry = buildRegistry();
    return registry;
}

const WorkloadInfo *
tryFindWorkload(const std::string &name)
{
    for (const auto &info : workloadRegistry()) {
        if (info.name == name)
            return &info;
    }
    return nullptr;
}

const WorkloadInfo &
findWorkload(const std::string &name)
{
    if (const WorkloadInfo *info = tryFindWorkload(name))
        return *info;
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workloadFamilies()
{
    std::vector<std::string> out;
    for (const auto &info : workloadRegistry()) {
        bool seen = false;
        for (const auto &f : out)
            seen = seen || f == info.family;
        if (!seen)
            out.push_back(info.family);
    }
    return out;
}

std::vector<std::string>
workloadsInFamily(const std::string &family)
{
    std::vector<std::string> out;
    for (const auto &info : workloadRegistry()) {
        if (info.family == family)
            out.push_back(info.name);
    }
    return out;
}

} // namespace tmi
