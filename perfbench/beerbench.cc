/**
 * @file
 * End-to-end BEER benchmark: four named workloads against the public
 * dram / beer / svc APIs, with per-layer attribution measured from
 * outside the library.
 *
 *   sweep          measureProfile on one large transposed chip, one
 *                  1-CHARGED pattern per item (dram + measure only);
 *   recover        serial Session::run() per chip, k=32, vendors A/B/C,
 *                  on nproc testers side by side;
 *   recover-noisy  the same testers at k=16 behind FaultInjectionProxy
 *                  with adaptive quorum and UNSAT repair;
 *   fleet          nproc closed-loop clients against an in-process
 *                  RecoveryService (journal + cache) submitting new,
 *                  repeated and truncated profiles and v2 traces.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs every item
 * twice, untraced and then traced (TimedMemory, onProgress, onJobStart,
 * timed submit/wait calls), requires both runs to produce bit-identical
 * outputs (exit 3 otherwise), and prints the per-layer metrics. Every
 * output is checked against the generating ECC function; durations are
 * reported at reference host speed (host_speed.hh); the result is the
 * last stdout line, one JSON object. See README.md for the metric
 * definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/session.hh"
#include "dram/chip.hh"
#include "dram/fault_proxy.hh"
#include "dram/trace.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "sim/engine.hh"
#include "sim/stats_reduce.hh"
#include "svc/service.hh"
#include "host_speed.hh"
#include "timed_memory.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/stats.hh"

using namespace beer;
using beerbench::DramTimes;
using beerbench::HostSpeed;
using beerbench::SampleGate;
using beerbench::TimedMemory;
using dram::SimulatedChip;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Setups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/** The three refresh-pause bit error rates every workload measures at. */
constexpr double kPauseBers[] = {0.05, 0.15, 0.3};

/** Per-layer metrics and units, in output order (--trace 1). */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"dram.fill_s", "s"},
    {"dram.fill_words", "count"},
    {"dram.pause_s", "s"},
    {"dram.pauses", "count"},
    {"dram.read_s", "s"},
    {"dram.read_words", "count"},
    {"measure.self_s", "s"},
    {"measure.votes_spent", "count"},
    {"measure.escalations", "count"},
    {"measure.disagreements", "count"},
    {"solver.encode_s", "s"},
    {"solver.search_s", "s"},
    {"solver.calls", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"session.self_s", "s"},
    {"session.rounds", "count"},
    {"session.repair_attempts", "count"},
    {"session.rounds_retracted", "count"},
    {"session.useful_experiment_ratio", "ratio"},
    {"session.sim_test_s_per_chip", "s"},
    {"svc.submit_s", "s"},
    {"svc.queue_wait_s", "s"},
    {"svc.job_s.cold", "s"},
    {"svc.job_s.exact", "s"},
    {"svc.job_s.near", "s"},
    {"svc.job_s.trace", "s"},
    {"svc.job_ms_p50.cold", "ms"},
    {"svc.job_ms_p50.exact", "ms"},
    {"svc.job_ms_p50.near", "ms"},
    {"svc.job_ms_p50.trace", "ms"},
    {"svc.sat_solves", "count"},
    {"svc.cache.exact_hits", "count"},
    {"svc.cache.near_hits", "count"},
    {"svc.journal.bytes", "bytes"},
    {"process.peak_rss_mb", "MB"},
    {"traced_wall_s", "s"},
    {"unattributed_s", "s"},
    {"tracing.overhead", "ratio"},
};

/** Time-valued layers that, with unattributed_s, make up traced_wall_s. */
const std::vector<std::string> kLayerTimes = {
    "dram.fill_s",     "dram.pause_s",    "dram.read_s",
    "measure.self_s",  "solver.encode_s", "solver.search_s",
    "session.self_s",  "svc.submit_s",    "svc.queue_wait_s",
    "svc.job_s.cold",  "svc.job_s.exact", "svc.job_s.near",
    "svc.job_s.trace",
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string workDir;
    std::size_t threads = 1;
};

/** What one run prints as its last line. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Host-speed scale applied to the durations (see host_speed.hh). */
    double referenceScale = 1.0;
    /** The end-to-end metrics before scaling (host line only). */
    std::vector<std::pair<std::string, double>> raw;
    /** name -> (value, unit), printed in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Per-layer values of a traced run, keyed by kLayerMetrics names. */
using Layers = std::map<std::string, double>;

void
addDram(Layers &layers, const DramTimes &t)
{
    layers["dram.fill_s"] += t.fillSeconds;
    layers["dram.fill_words"] += (double)t.fillWords;
    layers["dram.pause_s"] += t.pauseSeconds;
    layers["dram.pauses"] += (double)t.pauses;
    layers["dram.read_s"] += t.readSeconds;
    layers["dram.read_words"] += (double)t.readWords;
}

/**
 * Close a traced run's accounting: unattributed_s is the traced wall
 * time no layer covers, tracing.overhead the traced/untraced ratio of
 * the same work, minus 1.
 */
void
finishLayers(Layers &layers, double traced_wall, double traced_work,
             double untraced_work)
{
    double covered = 0.0;
    for (const std::string &name : kLayerTimes)
        covered += layers[name];
    layers["traced_wall_s"] = traced_wall;
    layers["unattributed_s"] = traced_wall - covered;
    layers["tracing.overhead"] =
        untraced_work > 0.0 ? traced_work / untraced_work - 1.0 : 0.0;
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

/** Emit every per-layer metric, host durations at reference speed. */
void
addLayers(Result &result, Layers layers, const HostSpeed &speed)
{
    for (const auto &[name, value] : layers) {
        const bool known = std::any_of(
            kLayerMetrics.begin(), kLayerMetrics.end(),
            [&](const auto &m) { return m.first == name; });
        if (!known)
            util::fatal("internal: unknown layer metric '%s'",
                        name.c_str());
    }
    layers["process.peak_rss_mb"] = peakRssMb();
    result.referenceScale = speed.scale();
    for (const auto &[name, unit] : kLayerMetrics) {
        const bool host_time = (unit == "s" || unit == "ms") &&
                               name != "session.sim_test_s_per_chip";
        result.add(name,
                   host_time ? layers[name] * speed.scale() : layers[name],
                   unit);
    }
}

/** Median set-up seconds of a run, scaled and as measured. */
struct SetupTime
{
    double scaled = 0.0;
    double raw = 0.0;
};

/**
 * End-to-end metrics, identical names on every workload; @p throughput
 * and @p latency_ms as measured, reported at reference speed. The
 * figures as measured go to the host line.
 */
void
addEndToEnd(Result &result, const SetupTime &setup, double throughput,
            const std::vector<double> &latency_ms, const HostSpeed &speed)
{
    const double scale = speed.scale();
    const double p50 = util::quantile(latency_ms, 0.5);
    const double p90 = util::quantile(latency_ms, 0.9);
    result.referenceScale = scale;
    result.add("setup_s", setup.scaled, "s");
    result.add("throughput_per_s", throughput / scale, "1/s");
    result.add("latency_ms_p50", p50 * scale, "ms");
    result.add("latency_ms_p90", p90 * scale, "ms");
    result.raw = {{"setup_s", setup.raw},
                  {"throughput_per_s", throughput},
                  {"latency_ms_p50", p50},
                  {"latency_ms_p90", p90}};
}

/**
 * Run @p make kSetupRepeats times (once when traced), keep the last
 * fixture, and report the median set-up seconds (the kernel is timed
 * before and after each set-up).
 */
template <class Fixture>
std::unique_ptr<Fixture>
setUp(const Options &opts, SetupTime &setup,
      const std::function<std::unique_ptr<Fixture>()> &make)
{
    std::vector<double> scaled;
    std::vector<double> raw;
    std::unique_ptr<Fixture> fixture;
    for (int i = 0; i < (opts.trace ? 1 : kSetupRepeats); ++i) {
        fixture.reset();
        HostSpeed speed;
        speed.sample();
        const auto start = Clock::now();
        fixture = make();
        const double seconds = secondsSince(start);
        speed.sample();
        scaled.push_back(seconds * speed.scale());
        raw.push_back(seconds);
    }
    setup = {util::median(scaled), util::median(raw)};
    return fixture;
}

MeasureConfig
pauseSweep(const SimulatedChip &chip, std::size_t repeats)
{
    MeasureConfig measure;
    measure.pausesSeconds.clear();
    for (double ber : kPauseBers)
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = repeats;
    measure.thresholdProbability = 1e-4;
    return measure;
}

bool
countsIdentical(const ProfileCounts &a, const ProfileCounts &b)
{
    return a.k == b.k && a.patterns == b.patterns &&
           a.errorCounts == b.errorCounts &&
           a.wordsTested == b.wordsTested &&
           a.disagreements == b.disagreements &&
           a.votesSpent == b.votesSpent;
}

[[noreturn]] void
diverged(const char *workload, std::size_t item)
{
    std::fprintf(stderr,
                 "beerbench: %s item %zu: traced run diverged from the "
                 "untraced run\n",
                 workload, item);
    std::exit(3);
}

// ---- sweep -------------------------------------------------------------

dram::ChipConfig
sweepChipConfig(const Options &opts, std::size_t threads)
{
    dram::ChipConfig config = dram::makeVendorConfig('A', 32, opts.seed);
    // Two words per row: 131072 words on the full-size chip.
    config.map.rows = opts.tiny ? 512 : 65536;
    config.iidErrors = true;
    config.threads = threads;
    return config;
}

struct SweepFixture
{
    std::unique_ptr<SimulatedChip> chip;
    /** Same-seed twin driven through TimedMemory (traced runs). */
    std::unique_ptr<SimulatedChip> twin;
    std::vector<TestPattern> patterns;
    MiscorrectionProfile expected;
    MeasureConfig measure;
    std::vector<std::size_t> words;
};

/**
 * One pattern's counts are correct iff every word was observed at
 * every pause and the nonzero-count bits are exactly the bits the
 * code can miscorrect (no other noise source exists on this chip).
 */
bool
sweepItemCorrect(const SweepFixture &f, std::size_t p,
                 const ProfileCounts &counts)
{
    const std::uint64_t words =
        (std::uint64_t)f.words.size() * f.measure.pausesSeconds.size();
    if (counts.patterns.size() != 1 || counts.wordsTested[0] != words)
        return false;
    return counts.threshold(0.0).patterns[0].miscorrectable ==
           f.expected.patterns[p].miscorrectable;
}

Result
runSweep(const Options &opts)
{
    SetupTime setup;
    const auto fixture = setUp<SweepFixture>(opts, setup, [&] {
        auto f = std::make_unique<SweepFixture>();
        f->chip = std::make_unique<SimulatedChip>(
            sweepChipConfig(opts, opts.threads));
        if (opts.trace)
            f->twin = std::make_unique<SimulatedChip>(
                sweepChipConfig(opts, opts.threads));
        f->patterns = chargedPatterns(32, 1);
        f->expected =
            exhaustiveProfile(f->chip->groundTruthCode(), f->patterns);
        f->measure = pauseSweep(*f->chip, 1);
        f->words = dram::trueCellWords(*f->chip);
        // Warm-up: the first measurement starts the chip's worker pool
        // and resolves its wide read kernel. Both chips take it, so
        // they stay in lockstep.
        const std::vector<TestPattern> first{f->patterns[0]};
        measureProfile(*f->chip, first, f->measure, f->words);
        if (f->twin)
            measureProfile(*f->twin, first, f->measure, f->words);
        return f;
    });
    SweepFixture &f = *fixture;

    Result result;
    std::vector<double> latency_ms;
    std::uint64_t observations = 0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double traced_wall = 0.0;
    double votes = 0.0;
    double gated = 0.0;
    HostSpeed speed;
    SampleGate gate(1);
    std::unique_ptr<TimedMemory> timed;
    if (opts.trace)
        timed = std::make_unique<TimedMemory>(*f.twin);

    const auto start = Clock::now();
    for (std::size_t item = 0; secondsSince(start) < opts.seconds;
         ++item) {
        gated += gate.between(speed);
        const std::size_t p = item % f.patterns.size();
        const std::vector<TestPattern> one{f.patterns[p]};
        auto t0 = Clock::now();
        const ProfileCounts counts =
            measureProfile(*f.chip, one, f.measure, f.words);
        const double dt = secondsSince(t0);
        untraced_s += dt;
        latency_ms.push_back(1e3 * dt);
        observations += counts.totalObservations();
        result.count(sweepItemCorrect(f, p, counts));
        if (!opts.trace)
            continue;

        t0 = Clock::now();
        const ProfileCounts traced =
            measureProfile(*timed, one, f.measure, f.words);
        traced_s += secondsSince(t0);
        if (!countsIdentical(counts, traced))
            diverged("sweep", item);
        votes += (double)traced.totalVotesSpent();
        traced_wall += secondsSince(t0);
    }
    const double wall = secondsSince(start) - gated;

    // Chip threads must not change the counts: fresh 1-thread and
    // nproc-thread chips measure the first two patterns identically.
    {
        SimulatedChip one_thread(sweepChipConfig(opts, 1));
        SimulatedChip all_threads(sweepChipConfig(opts, opts.threads));
        const std::vector<TestPattern> first(f.patterns.begin(),
                                             f.patterns.begin() + 2);
        result.count(countsIdentical(
            measureProfile(one_thread, first, f.measure, f.words),
            measureProfile(all_threads, first, f.measure, f.words)));
    }

    if (!opts.trace) {
        addEndToEnd(result, setup, (double)observations / wall,
                    latency_ms, speed);
        return result;
    }
    Layers layers;
    const DramTimes &d = timed->times();
    addDram(layers, d);
    layers["measure.self_s"] = traced_s - d.seconds();
    layers["measure.votes_spent"] = votes;
    const double sweeps =
        (double)latency_ms.size() / (double)f.patterns.size();
    layers["session.sim_test_s_per_chip"] =
        d.simulatedPauseSeconds / sweeps;
    finishLayers(layers, traced_wall, traced_s, untraced_s);
    addLayers(result, layers, speed);
    return result;
}

// ---- recover / recover-noisy -------------------------------------------

/** Sessions' shape: quiet k=32 or noisy k=16. */
struct SessionShape
{
    const char *name;
    std::size_t k;
    bool noisy;
    std::size_t poolSize;
};

dram::ChipConfig
sessionChipConfig(const Options &opts, const SessionShape &shape,
                  std::size_t item)
{
    const char vendor = "ABC"[item % 3];
    dram::ChipConfig config = dram::makeVendorConfig(
        vendor, shape.k, opts.seed * 1000003ULL + item);
    config.map.rows = 64;
    config.iidErrors = true;
    return config;
}

/** The chaos_recovery noise: transient flips plus periodic bursts. */
dram::FaultInjectionConfig
noiseConfig(const Options &opts, std::size_t item)
{
    dram::FaultInjectionConfig chaos;
    chaos.transientFlipRate = 1e-4;
    chaos.burst = {2048, 64, 5e-4};
    chaos.seed = (opts.seed * 7919ULL) ^ item;
    return chaos;
}

SessionConfig
sessionConfig(const SimulatedChip &chip, const SessionShape &shape)
{
    SessionConfig config;
    config.measure = pauseSweep(chip, 25);
    config.wordsUnderTest = dram::trueCellWords(chip);
    if (shape.noisy) {
        config.measure.quorum.votes = 3;
        config.measure.quorum.escalatedVotes = 7;
        config.measure.quorum.adaptive = true;
        config.measure.thresholdProbability = 1e-3;
        config.repair.enabled = true;
        config.repair.maxAttempts = 8;
        config.repair.remeasureVotes = 7;
    }
    return config;
}

struct SessionFixture
{
    /** One fresh chip per item, plus same-seed twins when traced. */
    std::vector<std::unique_ptr<SimulatedChip>> chips;
    std::vector<std::unique_ptr<SimulatedChip>> twins;
};

/** Per-round layer attribution from onProgress notifications. */
struct RoundSpans
{
    const Session *session = nullptr;
    const TimedMemory *dram = nullptr;
    std::size_t rounds = 0;
    double measureSelf = 0.0;
    double solve = 0.0;
    double lastMeasure = 0.0;
    double lastSolve = 0.0;
    double lastDram = 0.0;

    /** Attribute the stage that just ended (stats deltas since the
     *  previous notification) to its layer. */
    void onProgress(const SessionProgress &progress)
    {
        const SessionStats &s = session->stats();
        const double dram_now = dram->times().seconds();
        if (progress.stage == SessionStage::Measure) {
            ++rounds;
            measureSelf += (s.measureSeconds - lastMeasure) -
                           (dram_now - lastDram);
        } else if (progress.stage == SessionStage::Solve) {
            solve += s.solveSeconds - lastSolve;
        }
        lastMeasure = s.measureSeconds;
        lastSolve = s.solveSeconds;
        lastDram = dram_now;
    }
};

/** Recover one chip, optionally through TimedMemory with round spans. */
RecoveryReport
recoverChip(SimulatedChip &chip, const SessionShape &shape,
            const Options &opts, std::size_t item, double &run_seconds,
            Layers *layers)
{
    std::unique_ptr<dram::FaultInjectionProxy> proxy;
    dram::MemoryInterface *mem = &chip;
    if (shape.noisy) {
        proxy = std::make_unique<dram::FaultInjectionProxy>(
            chip, noiseConfig(opts, item));
        mem = proxy.get();
    }
    SessionConfig config = sessionConfig(chip, shape);
    std::unique_ptr<TimedMemory> timed;
    RoundSpans spans;
    if (layers) {
        timed = std::make_unique<TimedMemory>(*mem);
        mem = timed.get();
        spans.dram = timed.get();
        config.onProgress = [&spans](const SessionProgress &p) {
            spans.onProgress(p);
        };
    }

    Session session(*mem, config);
    spans.session = &session;
    const auto start = Clock::now();
    RecoveryReport report = session.run();
    run_seconds = secondsSince(start);
    if (!layers)
        return report;

    const SessionStats &s = report.stats;
    const DramTimes &d = timed->times();
    Layers &l = *layers;
    addDram(l, d);
    l["measure.self_s"] += spans.measureSelf;
    l["measure.votes_spent"] += (double)s.quorumVotesSpent;
    l["measure.escalations"] += (double)s.quorumEscalations;
    l["measure.disagreements"] += (double)s.quorumDisagreements;
    l["solver.encode_s"] += s.solveEncodeSeconds;
    l["solver.search_s"] += s.solveSearchSeconds;
    l["solver.calls"] += (double)s.solveCalls;
    l["sat.conflicts"] += (double)s.sat.conflicts;
    l["sat.propagations"] += (double)s.sat.propagations;
    l["session.self_s"] +=
        run_seconds - spans.measureSelf - d.seconds() - spans.solve;
    l["session.rounds"] += (double)spans.rounds;
    l["session.repair_attempts"] += (double)s.repairAttempts;
    l["session.rounds_retracted"] += (double)s.roundsRetracted;
    // Experiments committed and kept: re-measured patterns replaced
    // retracted ones, whose experiments were spent for nothing.
    const std::uint64_t per_pattern =
        config.measure.pausesSeconds.size() *
        config.measure.repeatsPerPause;
    l["useful_experiments"] +=
        (double)(s.patternMeasurements -
                 s.patternsRemeasured * per_pattern);
    l["session.sim_test_s_per_chip"] += d.simulatedPauseSeconds;
    return report;
}

bool
reportsIdentical(const RecoveryReport &a, const RecoveryReport &b)
{
    return countsIdentical(a.counts, b.counts) &&
           a.stats.patternMeasurements == b.stats.patternMeasurements &&
           a.succeeded() == b.succeeded() &&
           (!a.succeeded() || a.recoveredCode() == b.recoveredCode());
}

Result
runSessions(const Options &opts, const SessionShape &shape)
{
    const std::size_t pool = opts.tiny ? 8 : shape.poolSize;
    SetupTime setup;
    const auto fixture = setUp<SessionFixture>(opts, setup, [&] {
        auto f = std::make_unique<SessionFixture>();
        for (std::size_t i = 0; i < pool; ++i) {
            f->chips.push_back(std::make_unique<SimulatedChip>(
                sessionChipConfig(opts, shape, i)));
            if (opts.trace)
                f->twins.push_back(std::make_unique<SimulatedChip>(
                    sessionChipConfig(opts, shape, i)));
        }
        // Warm-up: one throwaway recovery on a fixed vendor-B chip,
        // outside the stream and, noise included, the same for every
        // seed.
        dram::ChipConfig warm_config = dram::makeVendorConfig('B', shape.k, 0);
        warm_config.map.rows = 64;
        warm_config.iidErrors = true;
        SimulatedChip warm(warm_config);
        Options warm_opts = opts;
        warm_opts.seed = 0;
        double ignored = 0.0;
        recoverChip(warm, shape, warm_opts, 0, ignored, nullptr);
        return f;
    });
    SessionFixture &f = *fixture;
    // Items past the pre-built pool build their chip on the spot.
    const auto chip_for = [&](std::vector<std::unique_ptr<SimulatedChip>>
                                  &chips,
                              std::size_t item) {
        if (item < chips.size())
            return std::move(chips[item]);
        return std::make_unique<SimulatedChip>(
            sessionChipConfig(opts, shape, item));
    };

    // nproc testers recover chips side by side, the way a test farm
    // runs: every session stays serial, chips are handed out in order.
    struct Tester
    {
        std::vector<double> latencyMs;
        std::vector<bool> ok;
        Layers layers;
        double untraced = 0.0;
        double traced = 0.0;
        double tracedWall = 0.0;
        /** First item whose traced twin diverged, plus one. */
        std::size_t diverged = 0;
        HostSpeed speed;
        /** Seconds from the start until this tester stopped, minus the
         *  seconds it spent in the sample gate. */
        double busy = 0.0;
        double gated = 0.0;
        /** What an item threw, if one did. */
        std::string error;
    };
    std::vector<Tester> testers(opts.threads);
    SampleGate gate(opts.threads);
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    const auto test = [&](Tester &t) {
        try {
            while (secondsSince(start) < opts.seconds && !t.diverged) {
                t.gated += gate.between(t.speed);
                const std::size_t item = next.fetch_add(1);
                const std::unique_ptr<SimulatedChip> chip =
                    chip_for(f.chips, item);
                double run_s = 0.0;
                const RecoveryReport report =
                    recoverChip(*chip, shape, opts, item, run_s, nullptr);
                t.untraced += run_s;
                t.latencyMs.push_back(1e3 * run_s);
                const bool ok = report.succeeded() &&
                                ecc::equivalent(report.recoveredCode(),
                                                chip->groundTruthCode());
                t.ok.push_back(ok);
                if (!ok)
                    std::fprintf(stderr, "beerbench: %s item %zu failed: %s\n",
                                 shape.name, item,
                                 report.diagnosis.toJson().c_str());
                if (!opts.trace)
                    continue;

                const auto t0 = Clock::now();
                const std::unique_ptr<SimulatedChip> twin =
                    chip_for(f.twins, item);
                const RecoveryReport traced =
                    recoverChip(*twin, shape, opts, item, run_s, &t.layers);
                t.traced += run_s;
                if (!reportsIdentical(report, traced))
                    t.diverged = item + 1;
                t.tracedWall += secondsSince(t0);
            }
        } catch (const std::exception &e) {
            t.error = e.what();
        }
        gate.leave();
        t.busy = secondsSince(start) - t.gated;
    };
    std::vector<std::thread> threads;
    for (Tester &t : testers)
        threads.emplace_back(test, std::ref(t));
    for (std::thread &thread : threads)
        thread.join();

    // Throughput sums the testers' own rates, so a tester still
    // finishing a long chip after the deadline leaves no idle tail in it.
    Result result;
    Layers layers;
    HostSpeed speed;
    std::vector<double> latency_ms;
    double throughput = 0.0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double traced_wall = 0.0;
    for (const Tester &t : testers) {
        if (!t.error.empty())
            util::fatal("%s: %s", shape.name, t.error.c_str());
        if (t.diverged)
            diverged(shape.name, t.diverged - 1);
        latency_ms.insert(latency_ms.end(), t.latencyMs.begin(),
                          t.latencyMs.end());
        for (bool ok : t.ok)
            result.count(ok);
        for (const auto &[name, value] : t.layers)
            layers[name] += value;
        untraced_s += t.untraced;
        traced_s += t.traced;
        traced_wall += t.tracedWall;
        speed.merge(t.speed);
        throughput += (double)t.latencyMs.size() / t.busy;
    }
    const std::size_t items = latency_ms.size();

    if (!opts.trace) {
        addEndToEnd(result, setup, throughput, latency_ms, speed);
        return result;
    }
    const double issued = layers["dram.pauses"];
    layers["session.useful_experiment_ratio"] =
        issued > 0.0 ? layers["useful_experiments"] / issued : 0.0;
    layers.erase("useful_experiments");
    layers["session.sim_test_s_per_chip"] /= (double)items;
    finishLayers(layers, traced_wall, traced_s, untraced_s);
    addLayers(result, layers, speed);
    return result;
}

// ---- fleet -------------------------------------------------------------

/** One request of the seeded fleet stream. */
struct FleetJob
{
    enum class Kind
    {
        New,
        Repeat,
        Near,
        Trace,
    };
    Kind kind = Kind::New;
    /** Index into the new-profile pool (New/Repeat/Near) or traces. */
    std::size_t ref = 0;
};

struct FleetFixture
{
    std::filesystem::path dir;
    std::vector<ecc::LinearCode> codes;
    std::vector<std::string> payloads;
    /** Each profile minus its last two patterns: a sibling chip. */
    std::vector<std::string> nearPayloads;
    std::vector<std::string> tracePaths;
    std::vector<ecc::LinearCode> traceCodes;
    std::vector<FleetJob> stream;
    std::unique_ptr<svc::RecoveryService> service;

    ~FleetFixture()
    {
        service.reset();
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }
};

/** Start timestamps per job id (onJobStart, traced runs only). */
struct JobStarts
{
    std::mutex mutex;
    std::map<svc::JobId, Clock::time_point> at;

    void record(svc::JobId id)
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        at.emplace(id, now);
    }
    /** Start of @p id, or @p otherwise if it never started. */
    Clock::time_point get(svc::JobId id, Clock::time_point otherwise)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = at.find(id);
        return it == at.end() ? otherwise : it->second;
    }
};

std::unique_ptr<svc::RecoveryService>
makeService(const std::filesystem::path &dir, const Options &opts,
            JobStarts *starts)
{
    std::filesystem::create_directories(dir);
    svc::ServiceConfig config;
    config.threads = opts.threads;
    config.journalPath = (dir / "jobs.journal").string();
    config.cache.path = (dir / "fingerprints.cache").string();
    if (starts)
        config.onJobStart = [starts](svc::JobId id) {
            starts->record(id);
        };
    return std::make_unique<svc::RecoveryService>(config);
}

std::unique_ptr<FleetFixture>
makeFleet(const Options &opts, int instance)
{
    auto f = std::make_unique<FleetFixture>();
    f->dir = std::filesystem::path(opts.workDir) /
             ("fleet-" + std::to_string(getpid()) + "-" +
              std::to_string(instance));
    std::filesystem::remove_all(f->dir);
    std::filesystem::create_directories(f->dir);

    constexpr std::size_t k = 16;
    util::Rng rng(opts.seed);
    const auto patterns = chargedPatternUnion(k, {1, 2});
    const std::size_t new_profiles = opts.tiny ? 24 : 1500;
    for (std::size_t i = 0; i < new_profiles; ++i) {
        f->codes.push_back(ecc::randomSecCode(k, rng));
        MiscorrectionProfile profile =
            exhaustiveProfile(f->codes.back(), patterns);
        f->payloads.push_back(serializeProfile(profile));
        profile.patterns.resize(profile.patterns.size() - 2);
        f->nearPayloads.push_back(serializeProfile(profile));
    }

    // v2 traces of real measurements on simulated chips. A short
    // measurement can miss a rare miscorrection, and then no function
    // fits the trace; such chips are skipped, so that every trace job
    // has an answer.
    const std::size_t traces = opts.tiny ? 2 : 6;
    for (std::size_t i = 0; f->tracePaths.size() < traces; ++i) {
        dram::ChipConfig config = dram::makeVendorConfig(
            "ABC"[i % 3], k, opts.seed * 1000003ULL + 500000 + i);
        config.map.rows = 64;
        config.iidErrors = true;
        SimulatedChip chip(config);
        const MeasureConfig measure = pauseSweep(chip, 5);
        const std::string path =
            (f->dir / ("chip" + std::to_string(i) + ".trace")).string();
        std::ofstream out(path, std::ios::binary);
        const ProfileCounts counts = recordProfileTrace(
            chip, patterns, measure, dram::trueCellWords(chip), out,
            dram::TraceWriteOptions{});
        if (counts.threshold(measure.thresholdProbability) !=
            exhaustiveProfile(chip.groundTruthCode(), patterns))
            continue;
        f->tracePaths.push_back(path);
        f->traceCodes.push_back(chip.groundTruthCode());
    }

    // The request mix. No measured fleet traffic exists, so every share
    // below is an assumption, not a measurement. Only its premise has a
    // source: BEER found chips of one model to share their ECC function,
    // so a chip of a model already seen yields a profile the service has
    // answered before. Assumed: 10% of requests are chips of a new
    // model (cold solve); 65% repeat one of the 16 most recently new
    // profiles (exact hit; a test floor works through a few models at a
    // time); 10% are such a profile missing its last two patterns
    // (near match: a shorter test of a sibling chip); 15% are archived
    // v2 traces (replay). The svc.job_ms_p50.* layer metrics are per
    // kind, so they hold whatever the real mix is.
    const std::size_t stream_len = opts.tiny ? 4000 : 200000;
    std::size_t issued_new = 0;
    for (std::size_t j = 0; j < stream_len; ++j) {
        const double r = rng.uniform();
        FleetJob job;
        if (r < 0.1 || issued_new == 0) {
            job.ref = issued_new++ % new_profiles;
        } else if (r < 0.85) {
            job.kind = r < 0.75 ? FleetJob::Kind::Repeat
                                : FleetJob::Kind::Near;
            const std::size_t window = std::min<std::size_t>(16, issued_new);
            job.ref = (issued_new - 1 - rng.below(window)) % new_profiles;
        } else {
            job.kind = FleetJob::Kind::Trace;
            job.ref = rng.below(traces);
        }
        f->stream.push_back(job);
    }
    f->service = makeService(f->dir / "svc", opts, nullptr);
    return f;
}

/** What a client saw for one stream entry. */
struct FleetOutcome
{
    bool done = false;
    bool ok = false;
    std::string code;
    double latency = 0.0;
    double submit = 0.0;
    double queueWait = 0.0;
    double jobSeconds = 0.0;
    svc::CacheOutcome cache = svc::CacheOutcome::None;
};

/** Timing of one closed-loop phase. */
struct FleetPhase
{
    /** Sum of the clients' busy seconds (outside the sample gate). */
    double clientSeconds = 0.0;
    /** Sum of the clients' own request rates. */
    double throughput = 0.0;
    HostSpeed speed;
};

/**
 * Run stream entries [0, limit) through @p service with opts.threads
 * closed-loop clients until the deadline passes; fills @p out for
 * every entry served.
 */
FleetPhase
runFleetPhase(const FleetFixture &f, svc::RecoveryService &service,
              const Options &opts, std::size_t limit, double seconds,
              JobStarts *starts, std::vector<FleetOutcome> &out)
{
    out.assign(limit, FleetOutcome{});
    std::atomic<std::size_t> next{0};
    struct Client
    {
        HostSpeed speed;
        std::size_t served = 0;
        double busy = 0.0;
        double gated = 0.0;
        /** What a request threw, if one did. */
        std::string error;
    };
    std::vector<Client> state(opts.threads);
    SampleGate gate(opts.threads);
    const auto start = Clock::now();
    const auto client = [&](Client &c) {
        // Checking the deadline before claiming an entry means every
        // claimed entry is served: the served set is a prefix.
        try {
            while (secondsSince(start) < seconds) {
                c.gated += gate.between(c.speed);
                const std::size_t j = next.fetch_add(1);
                if (j >= limit)
                    break;
                const FleetJob &job = f.stream[j];
                FleetOutcome &o = out[j];
                ++c.served;
                const auto t0 = Clock::now();
                svc::SubmitOutcome sub;
                switch (job.kind) {
                case FleetJob::Kind::New:
                case FleetJob::Kind::Repeat:
                    sub = service.submitPayload(f.payloads[job.ref]);
                    break;
                case FleetJob::Kind::Near:
                    sub = service.submitPayload(f.nearPayloads[job.ref]);
                    break;
                case FleetJob::Kind::Trace:
                    sub = service.submitTraceFile(f.tracePaths[job.ref]);
                    break;
                }
                const auto t1 = Clock::now();
                o.done = true;
                if (!sub.accepted) {
                    o.latency = secondsSince(t0);
                    continue;
                }
                service.waitForJob(sub.id);
                o.latency = secondsSince(t0);
                o.submit = std::chrono::duration<double>(t1 - t0).count();
                if (starts)
                    // A job may start before submit returns; its queue
                    // wait is then zero, not negative.
                    o.queueWait = std::max(
                        0.0, std::chrono::duration<double>(
                                 starts->get(sub.id, t1) - t1)
                                 .count());
                const std::optional<svc::JobStatus> status =
                    service.job(sub.id);
                const ecc::LinearCode &expected =
                    job.kind == FleetJob::Kind::Trace
                        ? f.traceCodes[job.ref]
                        : f.codes[job.ref];
                o.ok = status && status->state == svc::JobState::Done &&
                       status->succeeded && status->code &&
                       ecc::equivalent(*status->code, expected);
                if (status) {
                    o.code = status->codeString;
                    o.jobSeconds = status->seconds;
                    o.cache = status->cache;
                }
                if (!o.ok) {
                    const char *why =
                        !status ? "no status"
                        : !status->error.empty()
                            ? status->error.c_str()
                            : svc::jobErrorCodeName(status->errorCode);
                    std::fprintf(stderr,
                                 "beerbench: fleet request %zu (kind %d) "
                                 "failed: %s\n",
                                 j, (int)job.kind, why);
                }
            }
        } catch (const std::exception &e) {
            c.error = e.what();
        }
        gate.leave();
        c.busy = secondsSince(start) - c.gated;
    };
    std::vector<std::thread> clients;
    for (Client &c : state)
        clients.emplace_back(client, std::ref(c));
    for (std::thread &t : clients)
        t.join();

    FleetPhase phase;
    for (const Client &c : state) {
        if (!c.error.empty())
            util::fatal("fleet: %s", c.error.c_str());
        phase.clientSeconds += c.busy;
        phase.throughput += (double)c.served / c.busy;
        phase.speed.merge(c.speed);
    }
    return phase;
}

Result
runFleet(const Options &opts)
{
    SetupTime setup;
    int instance = 0;
    const auto fixture = setUp<FleetFixture>(
        opts, setup, [&] { return makeFleet(opts, instance++); });
    FleetFixture &f = *fixture;

    // Traced runs split the time between the untraced and the traced
    // phase, which replays exactly the same stream prefix.
    Result result;
    std::vector<FleetOutcome> outcomes;
    const double phase_s = opts.trace ? opts.seconds / 2 : opts.seconds;
    const FleetPhase untraced = runFleetPhase(
        f, *f.service, opts, f.stream.size(), phase_s, nullptr, outcomes);
    std::size_t served = 0;
    std::vector<double> latency_ms;
    for (const FleetOutcome &o : outcomes) {
        if (!o.done)
            break;
        ++served;
        result.count(o.ok);
        latency_ms.push_back(1e3 * o.latency);
    }
    if (!opts.trace) {
        addEndToEnd(result, setup, untraced.throughput, latency_ms,
                    untraced.speed);
        return result;
    }

    JobStarts starts;
    std::vector<FleetOutcome> traced;
    FleetPhase traced_phase;
    svc::HealthReport health;
    {
        const std::unique_ptr<svc::RecoveryService> service =
            makeService(f.dir / "svc-traced", opts, &starts);
        traced_phase = runFleetPhase(f, *service, opts, served, 1e300,
                                     &starts, traced);
        health = service->health();
    }
    Layers layers;
    // Job body times per kind: their medians do not depend on the mix.
    std::map<std::string, std::vector<double>> job_ms;
    for (std::size_t j = 0; j < served; ++j) {
        const FleetOutcome &o = traced[j];
        if (o.ok != outcomes[j].ok || o.code != outcomes[j].code)
            diverged("fleet", j);
        layers["svc.submit_s"] += o.submit;
        layers["svc.queue_wait_s"] += o.queueWait;
        const char *kind = f.stream[j].kind == FleetJob::Kind::Trace ? "trace"
                           : o.cache == svc::CacheOutcome::Exact   ? "exact"
                           : o.cache == svc::CacheOutcome::Near    ? "near"
                                                                   : "cold";
        layers[std::string("svc.job_s.") + kind] += o.jobSeconds;
        job_ms[kind].push_back(1e3 * o.jobSeconds);
    }
    for (const auto &[kind, ms] : job_ms)
        layers["svc.job_ms_p50." + kind] = util::median(ms);
    layers["svc.sat_solves"] = (double)health.satSolves;
    layers["svc.cache.exact_hits"] = (double)health.cache.exactHits;
    layers["svc.cache.near_hits"] = (double)health.cache.nearHits;
    layers["svc.journal.bytes"] = (double)health.journal.bytes;
    // Clients are the fleet's wall clock: each of them is always either
    // submitting, waiting in the queue, waiting on a job body, or
    // somewhere no layer covers (wake-up, polling, checking).
    finishLayers(layers, traced_phase.clientSeconds,
                 traced_phase.clientSeconds, untraced.clientSeconds);
    HostSpeed speed = untraced.speed;
    speed.merge(traced_phase.speed);
    addLayers(result, layers, speed);
    return result;
}

// ---- output ------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if ((unsigned char)c >= 0x20)
            out += c;
    }
    return out;
}

/** Host fingerprint, the applied scale and the unscaled figures. */
void
printHost(const Options &opts, const Result &result)
{
    std::printf("{\"host\": {\"cpu\": \"%s\", \"nproc\": %zu, "
                "\"simd_backend\": \"%s\", \"popcount_kernel\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, "
                "\"reference_scale\": %.6f}, \"raw\": {",
                jsonEscape(cpuModel()).c_str(), opts.threads,
                sim::engineKernel(util::simd::Backend::Auto).name,
                sim::statsReduceKernel().name,
                jsonEscape("g++ " __VERSION__).c_str(),
                BEERBENCH_BUILD_TYPE, opts.workload.c_str(),
                (unsigned long long)opts.seed, result.referenceScale);
    for (std::size_t i = 0; i < result.raw.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    result.raw[i].first.c_str(), result.raw[i].second);
    std::printf("}}\n");
}

void
printResult(const Result &result)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.failed == 0 ? "true" : "false",
                (unsigned long long)result.attempted,
                (unsigned long long)result.failed);
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto &[name, metric] = result.metrics[i];
        const double value = std::isfinite(metric.first) ? metric.first
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", name.c_str(), value,
                    metric.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("End-to-end BEER benchmark (see perfbench/README.md)");
    cli.addOption("workload", "recover",
                  "sweep | recover | recover-noisy | fleet");
    cli.addOption("seed", "1", "input seed");
    cli.addOption("seconds", "10", "measured seconds");
    cli.addOption("trace", "0",
                  "1 = per-layer metrics from a traced re-run");
    cli.addOption("size", "full", "full | tiny (smoke test)");
    cli.addOption("work-dir", ".",
                  "scratch directory for fleet journals and traces");
    cli.parse(argc, argv);

    Options opts;
    opts.workload = cli.getString("workload");
    opts.seed = (std::uint64_t)cli.getInt("seed");
    opts.seconds = cli.getDouble("seconds");
    opts.trace = cli.getInt("trace") != 0;
    opts.tiny = cli.getString("size") == "tiny";
    if (!opts.tiny && cli.getString("size") != "full")
        util::fatal("--size must be full or tiny");
    opts.workDir = cli.getString("work-dir");
    opts.threads = std::max(1u, std::thread::hardware_concurrency());

    Result result;
    if (opts.workload == "sweep")
        result = runSweep(opts);
    else if (opts.workload == "recover")
        result = runSessions(opts, {"recover", 32, false, 2048});
    else if (opts.workload == "recover-noisy")
        result = runSessions(opts, {"recover-noisy", 16, true, 1536});
    else if (opts.workload == "fleet")
        result = runFleet(opts);
    else
        util::fatal("unknown --workload '%s'", opts.workload.c_str());
    printHost(opts, result);
    printResult(result);
    return 0;
}
