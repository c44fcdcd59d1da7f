#include "beep/beep.hh"

#include <algorithm>
#include <utility>

#include "ecc/decoder.hh"
#include "sat/encoder.hh"
#include "util/logging.hh"

namespace beer::beep
{

using ecc::LinearCode;
using gf2::BitVec;
using sat::Encoder;
using sat::Lit;
using sat::Solver;

Profiler::Profiler(const LinearCode &code, const BeepConfig &config)
    : code_(code), config_(config), rng_(config.seed)
{
}

std::optional<BitVec>
Profiler::craftPattern(std::size_t target_bit,
                       const std::set<std::size_t> &known_errors,
                       bool require_neighbor_constraint) const
{
    const std::size_t k = code_.k();
    const std::size_t n = code_.n();
    const std::size_t p = code_.numParityBits();
    BEER_ASSERT(target_bit < n);

    Solver solver;
    Encoder enc(solver);

    // Dataword variables.
    std::vector<Lit> d(k);
    for (std::size_t i = 0; i < k; ++i)
        d[i] = enc.fresh();

    // Charge state of each codeword cell (true-cells: charge == value).
    // Parity cells are XORs of data bits through the known P matrix.
    std::vector<Lit> charge(n);
    for (std::size_t i = 0; i < k; ++i)
        charge[i] = d[i];
    for (std::size_t r = 0; r < p; ++r) {
        std::vector<Lit> terms;
        for (std::size_t j = 0; j < k; ++j)
            if (code_.pMatrix().get(r, j))
                terms.push_back(d[j]);
        charge[k + r] = enc.mkXor(terms);
    }

    // Constraint 1: target CHARGED, physical neighbors DISCHARGED.
    enc.require(charge[target_bit]);
    if (require_neighbor_constraint) {
        if (target_bit > 0)
            enc.require(~charge[target_bit - 1]);
        if (target_bit + 1 < n)
            enc.require(~charge[target_bit + 1]);
    }

    // Constraint 2: a miscorrection is observable if the target fails
    // together with some subset of the known error cells.
    // Selector s_e: cell e participates in the hypothetical raw-error
    // pattern. Selected cells must be CHARGED (only CHARGED cells can
    // decay).
    std::vector<std::size_t> candidates(known_errors.begin(),
                                        known_errors.end());
    if (!known_errors.count(target_bit))
        candidates.push_back(target_bit);

    std::vector<Lit> selectors(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        selectors[i] = enc.fresh();
        enc.requireImplies(selectors[i], charge[candidates[i]]);
        if (candidates[i] == target_bit)
            enc.require(selectors[i]);
    }

    // Syndrome of the hypothetical error pattern: XOR of the selected
    // cells' (constant, known) H columns.
    std::vector<Lit> syndrome(p);
    for (std::size_t r = 0; r < p; ++r) {
        std::vector<Lit> terms;
        for (std::size_t i = 0; i < candidates.size(); ++i)
            if (code_.hColumn(candidates[i]).get(r))
                terms.push_back(selectors[i]);
        syndrome[r] = enc.mkXor(terms);
    }

    // The syndrome must match the column of some DISCHARGED,
    // unselected data bit m: that is where the observable
    // miscorrection lands.
    std::vector<Lit> matches;
    for (std::size_t m = 0; m < k; ++m) {
        if (m == target_bit)
            continue;
        const BitVec col = code_.hColumn(m);
        std::vector<Lit> bits;
        bits.reserve(p + 1);
        for (std::size_t r = 0; r < p; ++r)
            bits.push_back(col.get(r) ? syndrome[r] : ~syndrome[r]);
        bits.push_back(~charge[m]); // m DISCHARGED (hence unselected)
        matches.push_back(enc.mkAnd(bits));
    }
    enc.require(matches);

    if (solver.solve() != sat::SolveResult::Sat)
        return std::nullopt;

    BitVec data(k);
    for (std::size_t i = 0; i < k; ++i)
        data.set(i, solver.modelValue(d[i].var()));
    return data;
}

std::optional<BitVec>
Profiler::craftAny(std::size_t target_bit,
                   const std::set<std::size_t> &known_errors) const
{
    std::optional<BitVec> pattern;
    if (config_.neighborConstraint)
        pattern = craftPattern(target_bit, known_errors, true);
    if (!pattern)
        pattern = craftPattern(target_bit, known_errors, false);
    return pattern;
}

std::optional<std::vector<std::size_t>>
Profiler::inferRawErrors(const BitVec &dataword, const BitVec &read) const
{
    const std::size_t k = code_.k();

    const BitVec diff = dataword ^ read;
    if (diff.isZero())
        return std::nullopt;

    const BitVec parity = code_.parityBits(dataword);

    // True-cells: a cell can only have decayed if its stored bit is 1.
    auto data_subset_charged = [&](const BitVec &e_d) {
        return e_d.isSubsetOf(dataword);
    };

    std::vector<std::vector<std::size_t>> interpretations;

    // Hypothesis family (a): the decoder miscorrected data bit m.
    for (std::size_t m : diff.support()) {
        BitVec e_d = diff;
        e_d.flip(m); // decoder flip removed: raw data errors
        if (!data_subset_charged(e_d))
            continue;
        // Equation 4: H*e = col_m and H = [P | I] give the unique
        // parity error component e_p = col_m xor P*e_d.
        BitVec e_p = code_.hColumn(m) ^ code_.pMatrix().mulVec(e_d);
        if (!e_p.isSubsetOf(parity))
            continue; // parity errors must be in CHARGED parity cells
        std::vector<std::size_t> cells = e_d.support();
        for (std::size_t r : e_p.support())
            cells.push_back(k + r);
        if (cells.empty())
            continue; // no raw error cannot trigger a correction
        interpretations.push_back(std::move(cells));
    }

    // Hypothesis family (b): the decoder did not flip any data bit
    // (it flipped a parity bit, detected-uncorrectable, or the errors
    // slipped through silently). Then the raw data errors are exactly
    // the observed diff; the parity component is unconstrained, so
    // this interpretation yields only the data-error positions. It is
    // viable only if all diff bits were CHARGED and some CHARGED
    // parity-error subset produces a syndrome that does not point at a
    // data bit.
    if (data_subset_charged(diff)) {
        const std::size_t charged_parity = parity.popcount();
        bool viable = false;
        if (charged_parity > 16) {
            viable = true; // too many subsets to refute; be conservative
        } else {
            const auto parity_support = parity.support();
            const BitVec base = code_.pMatrix().mulVec(diff);
            for (std::size_t sub = 0;
                 sub < ((std::size_t)1 << parity_support.size());
                 ++sub) {
                BitVec syndrome = base;
                for (std::size_t i = 0; i < parity_support.size(); ++i)
                    if ((sub >> i) & 1)
                        syndrome.flip(parity_support[i]);
                const std::size_t pos = code_.findColumn(syndrome);
                if (pos >= k) { // zero, parity hit, or no match
                    viable = true;
                    break;
                }
            }
        }
        if (viable)
            interpretations.push_back(diff.support());
    }

    if (interpretations.size() != 1)
        return std::nullopt; // ambiguous or impossible observation
    auto cells = interpretations.front();
    std::sort(cells.begin(), cells.end());
    return cells;
}

namespace
{

/** Fallback pattern: target CHARGED, neighbors DISCHARGED, rest random. */
BitVec
randomPattern(const LinearCode &code, std::size_t target,
              util::Rng &rng)
{
    const std::size_t k = code.k();
    BitVec data(k);
    for (std::size_t i = 0; i < k; ++i)
        data.set(i, rng.bernoulli(0.5));

    if (target < k) {
        data.set(target, true);
        if (target > 0)
            data.set(target - 1, false);
        if (target + 1 < k)
            data.set(target + 1, false);
    } else {
        // Parity target: make sure the parity cell ends up CHARGED by
        // flipping a data bit in its row if necessary.
        const std::size_t r = target - k;
        if (!code.parityBits(data).get(r)) {
            for (std::size_t j = 0; j < k; ++j) {
                if (code.pMatrix().get(r, j)) {
                    data.flip(j);
                    break;
                }
            }
        }
    }
    return data;
}

} // anonymous namespace

BeepResult
Profiler::profile(WordUnderTest &word)
{
    const std::size_t n = code_.n();
    BeepResult result;
    std::set<std::size_t> known;

    // Per-target scratch, allocated once per profile() call and
    // reused across all passes * n targets.
    std::vector<BitVec> patterns;
    patterns.reserve(config_.readsPerPattern);
    std::vector<BitVec> reads;

    bool stopped = false;
    for (std::size_t pass = 0; pass < config_.passes && !stopped;
         ++pass) {
        for (std::size_t target = 0; target < n; ++target) {
            if (known.count(target))
                continue; // already identified as error-prone

            std::optional<BitVec> pattern;
            if (config_.satCrafting && !known.empty())
                pattern = craftAny(target, known);
            const bool crafted = pattern.has_value();
            if (!crafted) {
                ++result.skippedTargets; // SAT found no pattern
                pattern = randomPattern(code_, target, rng_);
            }
            ++result.patternsTested;

            // All of this pattern's test cycles run as one batch on
            // the word's bitsliced engine (one lane-parallel decode
            // instead of readsPerPattern scalar ones). Crafted
            // patterns repeat; fallback patterns carry no crafted
            // structure, so redraw them per read — with deterministic
            // failures (P[error] = 1) repeated reads of one pattern
            // are identical and add no information. The Rng draw
            // order matches the former read-at-a-time loop: the
            // profiler's pattern stream and the word's decay stream
            // are separate Rngs, so hoisting the draws is invisible.
            patterns.clear();
            for (std::size_t rep = 0; rep < config_.readsPerPattern;
                 ++rep)
                patterns.push_back(rep == 0 || crafted
                                       ? *pattern
                                       : randomPattern(code_, target,
                                                       rng_));
            word.testMany(patterns.data(), patterns.size(), reads);

            const std::size_t usable =
                std::min(patterns.size(), reads.size());
            for (std::size_t rep = 0; rep < usable; ++rep) {
                ++result.reads;
                const auto inferred =
                    inferRawErrors(patterns[rep], reads[rep]);
                if (!inferred)
                    continue;
                ++result.informativeReads;
                known.insert(inferred->begin(), inferred->end());
            }
            if (reads.size() < patterns.size()) {
                stopped = true; // backend quit early (shutdown request)
                break;
            }
        }
    }

    result.errorCells.assign(known.begin(), known.end());
    return result;
}

} // namespace beer::beep
