/**
 * @file
 * Fingerprint cache of solved ECC functions.
 *
 * The fleet-scale premise (paper Section 7): millions of modules share
 * a handful of vendor ECC functions, so across a population most
 * recovery jobs re-derive a function the service has already solved.
 * The cache keys canonicalized (sorted-pattern) miscorrection profiles
 * by (k, parity bits) under a 64-bit FNV-1a fingerprint:
 *
 *  - an EXACT hit (same canonical profile, byte-for-byte — the hash is
 *    verified against the stored canonical form, never trusted alone)
 *    returns the previously solved function with zero SAT work;
 *  - anything else is a miss, which the service solves cold: a warm
 *    start from a partially overlapping entry measured slower than a
 *    cold solve, so there is no partial matching;
 *  - entries are LRU-bounded, and can be persisted to a text file
 *    (loaded at service start, flushed at shutdown) so a restarted
 *    server keeps its accumulated population knowledge.
 *
 * Only provably-unique solves are inserted: a cached function is an
 * answer, not a candidate. All methods are thread-safe: the service
 * calls lookup() from submitting threads and scheduler workers at
 * once, and insert() from workers. A lookup canonicalizes its profile
 * before taking the lock, so concurrent lookups share only the table
 * probe.
 */

#ifndef BEER_SVC_FINGERPRINT_CACHE_HH
#define BEER_SVC_FINGERPRINT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "beer/profile.hh"
#include "ecc/linear_code.hh"
#include "svc/io.hh"

namespace beer::svc
{

/** Knobs for the fingerprint cache. */
struct FingerprintCacheConfig
{
    /** Maximum entries before LRU eviction (0 = unbounded). */
    std::size_t capacity = 256;
    /** Persistence file; empty disables load/flush. */
    std::string path;
    /** I/O seam for load/flush; nullptr uses FileIo::system(). */
    FileIo *io = nullptr;
};

/** Counters the health endpoint reports. */
struct FingerprintCacheStats
{
    std::size_t entries = 0;
    std::uint64_t exactHits = 0;
    /** Always 0: near matching is gone. Kept only because the
     *  end-to-end benchmark (perfbench/) still reads it. */
    std::uint64_t nearHits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /** Entries restored by the last loadFromDisk(). */
    std::size_t loadedEntries = 0;
};

/** LRU cache of profile fingerprint -> solved ECC function. */
class FingerprintCache
{
  public:
    explicit FingerprintCache(FingerprintCacheConfig config = {});

    /** Outcome of a lookup. */
    struct Hit
    {
        enum class Kind
        {
            Miss,
            Exact,
        };
        Kind kind = Kind::Miss;
        /** The solved function (Exact only). */
        std::optional<ecc::LinearCode> code;
    };

    /**
     * Look @p profile up; an exact hit refreshes the entry's LRU
     * position. Hit/miss counters update as a side effect.
     */
    Hit lookup(const MiscorrectionProfile &profile,
               std::size_t parity_bits);

    /**
     * Insert (or refresh) the solved function for @p profile,
     * evicting the least-recently-used entry beyond capacity.
     */
    void insert(const MiscorrectionProfile &profile,
                std::size_t parity_bits, const ecc::LinearCode &code);

    std::size_t size() const;
    FingerprintCacheStats stats() const;

    /**
     * Restore entries from the configured path, preserving recency
     * order. Missing file or empty path is not an error (fresh
     * start); a corrupt file is warned about and ignored.
     *
     * @return true iff entries were restored
     */
    bool loadFromDisk();

    /** Write all entries to the configured path (LRU-oldest first). */
    bool flushToDisk() const;

    /** Canonical-form FNV-1a fingerprint (exposed for tests). */
    static std::uint64_t fingerprint(const MiscorrectionProfile &profile,
                                     std::size_t parity_bits);

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::size_t k = 0;
        std::size_t parityBits = 0;
        /** Entry count of the profile. */
        std::size_t lines = 0;
        /** Its canonical "<charged-csv> <bitmap>\n" lines, sorted. */
        std::string text;
        ecc::LinearCode code;
    };

    void insertLocked(Entry entry);

    FingerprintCacheConfig config_;
    mutable std::mutex mutex_;
    /** Most-recently-used first. */
    std::list<Entry> entries_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
        byHash_;
    FingerprintCacheStats stats_;
};

} // namespace beer::svc

#endif // BEER_SVC_FINGERPRINT_CACHE_HH
