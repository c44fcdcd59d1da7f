#include "svc/fingerprint_cache.hh"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/logging.hh"

namespace beer::svc
{

namespace
{

/**
 * The profile's entries as "<charged-csv> <bitmap>\n" lines, sorted
 * (pattern order independent), in one string. '\n' sorts below every
 * character a line holds, so the order is that of the bare lines.
 */
std::string
canonicalText(const MiscorrectionProfile &profile)
{
    using Span = std::pair<std::size_t, std::size_t>; // offset, length
    std::string lines;
    lines.reserve(profile.patterns.size() * (profile.k + 8));
    std::vector<Span> spans;
    spans.reserve(profile.patterns.size());
    for (const PatternProfile &entry : profile.patterns) {
        const std::size_t start = lines.size();
        for (std::size_t i = 0; i < entry.pattern.size(); ++i) {
            if (i)
                lines += ',';
            char digits[20];
            lines.append(digits, std::to_chars(digits, digits + 20,
                                               entry.pattern[i])
                                     .ptr);
        }
        lines += ' ';
        const std::uint64_t *words = entry.miscorrectable.words();
        for (std::size_t j = 0; j < entry.miscorrectable.size(); ++j)
            lines += (words[j / 64] >> (j % 64)) & 1 ? '1' : '0';
        lines += '\n';
        spans.emplace_back(start, lines.size() - start);
    }
    const auto line = [&lines](const Span &span) {
        return std::string_view(lines).substr(span.first, span.second);
    };
    std::sort(spans.begin(), spans.end(),
              [&](const Span &a, const Span &b) { return line(a) < line(b); });
    std::string text;
    text.reserve(lines.size());
    for (const Span &span : spans)
        text += line(span);
    return text;
}

std::uint64_t
fnv1a(std::uint64_t hash, std::string_view text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
hashCanonical(std::size_t k, std::size_t parity_bits,
              const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnv1a(hash, "k " + std::to_string(k) + " p " +
                           std::to_string(parity_bits));
    return fnv1a(hash, text);
}

} // anonymous namespace

FingerprintCache::FingerprintCache(FingerprintCacheConfig config)
    : config_(std::move(config))
{
}

std::uint64_t
FingerprintCache::fingerprint(const MiscorrectionProfile &profile,
                              std::size_t parity_bits)
{
    return hashCanonical(profile.k, parity_bits, canonicalText(profile));
}

FingerprintCache::Hit
FingerprintCache::lookup(const MiscorrectionProfile &profile,
                         std::size_t parity_bits)
{
    // Canonicalize outside the lock; only the table probe is shared.
    const std::string text = canonicalText(profile);
    const std::uint64_t hash = hashCanonical(profile.k, parity_bits, text);
    std::lock_guard<std::mutex> lock(mutex_);
    Hit hit;
    const auto it = byHash_.find(hash);
    if (it != byHash_.end() && it->second->k == profile.k &&
        it->second->parityBits == parity_bits &&
        it->second->text == text) {
        entries_.splice(entries_.begin(), entries_, it->second);
        hit.kind = Hit::Kind::Exact;
        hit.code = it->second->code;
        ++stats_.exactHits;
        return hit;
    }

    ++stats_.misses;
    return hit;
}

void
FingerprintCache::insertLocked(Entry entry)
{
    const auto it = byHash_.find(entry.hash);
    if (it != byHash_.end()) {
        // Same fingerprint: refresh in place (idempotent re-insert).
        *it->second = std::move(entry);
        entries_.splice(entries_.begin(), entries_, it->second);
        return;
    }
    entries_.push_front(std::move(entry));
    byHash_.emplace(entries_.front().hash, entries_.begin());
    ++stats_.inserts;
    if (config_.capacity && entries_.size() > config_.capacity) {
        byHash_.erase(entries_.back().hash);
        entries_.pop_back();
        ++stats_.evictions;
    }
}

void
FingerprintCache::insert(const MiscorrectionProfile &profile,
                         std::size_t parity_bits,
                         const ecc::LinearCode &code)
{
    std::string text = canonicalText(profile);
    const std::uint64_t hash = hashCanonical(profile.k, parity_bits, text);
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(Entry{hash, profile.k, parity_bits,
                       profile.patterns.size(), std::move(text), code});
}

std::size_t
FingerprintCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

FingerprintCacheStats
FingerprintCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FingerprintCacheStats stats = stats_;
    stats.entries = entries_.size();
    return stats;
}

bool
FingerprintCache::flushToDisk() const
{
    if (config_.path.empty())
        return false;
    std::string content = "beer-fpcache 1\n";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Oldest first, so replaying the file through insert() on load
        // reconstructs the same recency order.
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            content += "entry " + std::to_string(it->k) + ' ' +
                       std::to_string(it->parityBits) + ' ' +
                       std::to_string(it->lines) + '\n' + it->text;
            const gf2::Matrix &p = it->code.pMatrix();
            for (std::size_t r = 0; r < p.rows(); ++r)
                content += "P " + p.row(r).toString() + '\n';
        }
    }
    // Atomic replace through the I/O seam: an injected fault (or a
    // crash) leaves either the previous complete snapshot or the new
    // one, never a truncated cache a later boot would reject.
    FileIo &io = config_.io ? *config_.io : FileIo::system();
    if (!writeFileAtomic(io, config_.path, content)) {
        util::warn("fingerprint cache: cannot write '%s'",
                   config_.path.c_str());
        return false;
    }
    return true;
}

bool
FingerprintCache::loadFromDisk()
{
    if (config_.path.empty())
        return false;
    FileIo &io = config_.io ? *config_.io : FileIo::system();
    std::string content;
    if (!readFileAll(io, config_.path, content))
        return false; // fresh start
    std::istringstream in(content);

    const auto corrupt = [&](const char *what) {
        util::warn("fingerprint cache '%s': %s; ignoring rest of file",
                   config_.path.c_str(), what);
        return false;
    };

    std::string header;
    std::getline(in, header);
    if (header != "beer-fpcache 1")
        return corrupt("unrecognized header");

    std::size_t loaded = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string tag;
        std::size_t k = 0;
        std::size_t parity = 0;
        std::size_t count = 0;
        if (!(ss >> tag >> k >> parity >> count) || tag != "entry" ||
            k == 0 || parity == 0)
            return corrupt("malformed entry header");

        // Reuse the profile parser for the per-pattern lines.
        std::string profile_text = "k " + std::to_string(k) + "\n";
        for (std::size_t i = 0; i < count; ++i) {
            if (!std::getline(in, line))
                return corrupt("truncated entry");
            profile_text += line + "\n";
        }
        MiscorrectionProfile profile;
        if (!beer::tryParseProfile(profile_text, profile).ok)
            return corrupt("malformed profile lines");

        gf2::Matrix p(parity, k);
        for (std::size_t r = 0; r < parity; ++r) {
            if (!std::getline(in, line) || line.size() != k + 2 ||
                line[0] != 'P' || line[1] != ' ')
                return corrupt("malformed P row");
            for (std::size_t c = 0; c < k; ++c) {
                const char bit = line[2 + c];
                if (bit != '0' && bit != '1')
                    return corrupt("non-binary P row");
                p.set(r, c, bit == '1');
            }
        }

        std::string text = canonicalText(profile);
        const std::uint64_t hash = hashCanonical(k, parity, text);
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(Entry{hash, k, parity, profile.patterns.size(),
                           std::move(text), ecc::LinearCode(p)});
        ++loaded;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.loadedEntries = loaded;
    return loaded > 0;
}

} // namespace beer::svc
