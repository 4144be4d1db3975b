#include "memcached.hh"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "sim/usr_dist.hh"
#include "sim/zipf.hh"

namespace tfm
{

std::string
MemcachedParams::validate() const
{
    // The compact slot table stores key+1 in 32 bits, which also keeps
    // the bucket count (2 * numKeys rounded up) far from overflow.
    if (numKeys >= std::numeric_limits<std::uint32_t>::max())
        return "memcached numKeys must be below 2^32-1 (the compact slot "
               "table stores key+1 in 32 bits), got " +
               std::to_string(numKeys);
    if (numKeys == 0 && numGets > 0)
        return "memcached numKeys is 0 but numGets is " +
               std::to_string(numGets) + ": gets need a key to draw";
    return "";
}

std::size_t
fillRangeCount(std::uint64_t num_keys)
{
    return static_cast<std::size_t>(std::clamp<std::uint64_t>(
        num_keys / 65536, 1, 4));
}

std::vector<FillRange>
splitFill(std::uint64_t n, std::size_t parts)
{
    std::vector<FillRange> ranges(parts);
    const std::uint64_t base = n / parts, extra = n % parts;
    std::uint64_t lo = 0;
    for (std::size_t r = 0; r < parts; r++) {
        const std::uint64_t len = base + (r < extra ? 1 : 0);
        ranges[r] = {lo, lo + len};
        lo += len;
    }
    return ranges;
}

std::uint64_t
MemcachedWorkload::hashKey(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

MemcachedWorkload::MemcachedWorkload(MemBackend &backend,
                                     const MemcachedParams &parameters)
    : b(backend), params(parameters)
{
    const std::string invalid = params.validate();
    if (!invalid.empty())
        TFM_FATAL(invalid.c_str());
    numBuckets = 16;
    while (numBuckets < params.numKeys * 2)
        numBuckets <<= 1;
    indexAddr = b.alloc(numBuckets * sizeof(Bucket));
    footprint = numBuckets * sizeof(Bucket);

    // The index is built host-side as a compact slot -> key+1 table
    // (0 = empty), probing in insertion order. A key's slot depends only
    // on its hash and on the keys probed before it, never on an item, so
    // the probes run in a pass of their own, beside the allocation pass:
    // on a thread of their own when the fill is split, else inline. In
    // their own pass the table stays in the host cache between probes.
    std::vector<std::uint32_t> slotKey(numBuckets, 0);
    const auto probe = [&] {
        for (std::uint64_t k = 0; k < params.numKeys; k++) {
            std::uint64_t slot = hashKey(k) & (numBuckets - 1);
            while (slotKey[slot] != 0)
                slot = (slot + 1) & (numBuckets - 1);
            slotKey[slot] = static_cast<std::uint32_t>(k + 1);
        }
    };
    const std::size_t ranges = fillRangeCount(params.numKeys);
    const std::vector<FillRange> keyRanges =
        splitFill(params.numKeys, ranges);
    const std::vector<FillRange> slotRanges = splitFill(numBuckets, ranges);

    // Allocation pass: serial and in key order, so handles and the clock
    // do not depend on the number of ranges. Items get USR-style sizes;
    // each range keeps a copy of the size stream at its first key to
    // re-draw its items' sizes from.
    std::vector<std::uint64_t> itemAddrs(params.numKeys);
    std::vector<UsrSizeDist> rangeSizes;
    {
        std::jthread prober;
        if (ranges > 1)
            prober = std::jthread(probe);
        UsrSizeDist sizes(params.seed);
        for (const FillRange &range : keyRanges) {
            rangeSizes.push_back(sizes);
            for (std::uint64_t k = range.lo; k < range.hi; k++) {
                const KvSize s = sizes.next();
                const std::uint64_t item_bytes =
                    sizeof(ItemHeader) + s.keyBytes + s.valueBytes;
                itemAddrs[k] = b.alloc(item_bytes);
                footprint += item_bytes;
            }
        }
        if (ranges == 1)
            probe();
    }

    // Write phase (unmetered): range r writes its keys' items, whose
    // values are a repeating byte derived from the key so gets can be
    // verified, then streams its slice of the index as Buckets. Every
    // byte range belongs to one range and initWrite may run on disjoint
    // ranges at once (MemBackend::initWrite), so the image is the one a
    // serial fill leaves. The calling thread runs range 0.
    const auto writeRange = [&](std::size_t r) {
        UsrSizeDist sizes = rangeSizes[r];
        std::uint8_t value[512];
        for (std::uint64_t k = keyRanges[r].lo; k < keyRanges[r].hi; k++) {
            const KvSize s = sizes.next();
            const ItemHeader header{k, s.keyBytes, s.valueBytes};
            b.initWrite(itemAddrs[k], &header, sizeof(header));
            for (std::uint32_t i = 0; i < s.valueBytes; i++)
                value[i] = static_cast<std::uint8_t>(k * 131 + i);
            b.initWrite(itemAddrs[k] + sizeof(ItemHeader) + s.keyBytes,
                        value, s.valueBytes);
        }
        InitWriter index(b, indexAddr + slotRanges[r].lo * sizeof(Bucket));
        for (std::uint64_t slot = slotRanges[r].lo; slot < slotRanges[r].hi;
             slot++) {
            const std::uint32_t key_plus_one = slotKey[slot];
            if (key_plus_one == 0) {
                index.put(Bucket{0, 0});
            } else {
                const std::uint64_t k = key_plus_one - 1;
                index.put(Bucket{itemAddrs[k], hashKey(k)});
            }
        }
    };
    // A helper's exception is rethrown here once every range has
    // stopped, instead of terminating the program on its thread.
    std::vector<std::exception_ptr> failed(ranges);
    {
        std::vector<std::jthread> writers;
        for (std::size_t r = 1; r < ranges; r++) {
            writers.emplace_back([&, r] {
                try {
                    writeRange(r);
                } catch (...) {
                    failed[r] = std::current_exception();
                }
            });
        }
        writeRange(0);
    }
    for (const std::exception_ptr &e : failed) {
        if (e)
            std::rethrow_exception(e);
    }
    b.dropCaches();
}

int
MemcachedWorkload::get(std::uint64_t key, void *value_out,
                       std::uint32_t max_len)
{
    b.compute(12); // request parsing + hashing
    const std::uint64_t fingerprint = hashKey(key);
    std::uint64_t slot = fingerprint & (numBuckets - 1);
    while (true) {
        Bucket bucket;
        b.read(indexAddr + slot * sizeof(Bucket), &bucket, sizeof(bucket),
               AccessHint::Random);
        if (bucket.itemAddr == 0)
            return -1;
        if (bucket.keyFingerprint == fingerprint) {
            ItemHeader header;
            b.read(bucket.itemAddr, &header, sizeof(header),
                   AccessHint::Random);
            if (header.key == key) {
                const std::uint32_t len =
                    std::min(header.valueLen, max_len);
                b.read(bucket.itemAddr + sizeof(ItemHeader) +
                           header.keyLen,
                       value_out, len, AccessHint::Random);
                return static_cast<int>(len);
            }
        }
        slot = (slot + 1) & (numBuckets - 1);
    }
}

void
MemcachedWorkload::set(std::uint64_t key, const void *value,
                       std::uint32_t value_len)
{
    b.compute(12);
    const std::uint64_t fingerprint = hashKey(key);
    std::uint64_t slot = fingerprint & (numBuckets - 1);
    while (true) {
        Bucket bucket;
        b.read(indexAddr + slot * sizeof(Bucket), &bucket, sizeof(bucket),
               AccessHint::Random);
        if (bucket.itemAddr == 0) {
            // Fresh item.
            const std::uint32_t key_len = 16;
            const std::uint64_t item =
                b.alloc(sizeof(ItemHeader) + key_len + value_len);
            const ItemHeader header{key, key_len, value_len};
            b.write(item, &header, sizeof(header), AccessHint::Random);
            b.write(item + sizeof(ItemHeader) + key_len, value, value_len,
                    AccessHint::Random);
            const Bucket fresh{item, fingerprint};
            b.write(indexAddr + slot * sizeof(Bucket), &fresh,
                    sizeof(fresh), AccessHint::Random);
            return;
        }
        if (bucket.keyFingerprint == fingerprint) {
            ItemHeader header;
            b.read(bucket.itemAddr, &header, sizeof(header),
                   AccessHint::Random);
            if (header.key == key) {
                // Update in place when it fits, else reallocate.
                if (value_len <= header.valueLen) {
                    header.valueLen = value_len;
                    b.write(bucket.itemAddr, &header, sizeof(header),
                            AccessHint::Random);
                    b.write(bucket.itemAddr + sizeof(ItemHeader) +
                                header.keyLen,
                            value, value_len, AccessHint::Random);
                } else {
                    b.dealloc(bucket.itemAddr);
                    const std::uint64_t item = b.alloc(
                        sizeof(ItemHeader) + header.keyLen + value_len);
                    const ItemHeader fresh_header{key, header.keyLen,
                                                  value_len};
                    b.write(item, &fresh_header, sizeof(fresh_header),
                            AccessHint::Random);
                    b.write(item + sizeof(ItemHeader) + header.keyLen,
                            value, value_len, AccessHint::Random);
                    Bucket updated = bucket;
                    updated.itemAddr = item;
                    b.write(indexAddr + slot * sizeof(Bucket), &updated,
                            sizeof(updated), AccessHint::Random);
                }
                return;
            }
        }
        slot = (slot + 1) & (numBuckets - 1);
    }
}

MemcachedResult
MemcachedWorkload::run()
{
    if (!keySampler) {
        keySampler = std::make_unique<ZipfGenerator>(
            params.numKeys, params.zipfSkew, params.seed);
    }
    MemcachedResult result;
    std::uint8_t value[512];
    const BackendSnapshot before = snapshot(b);
    for (std::uint64_t i = 0; i < params.numGets; i++) {
        const std::uint64_t key = keySampler->next();
        const int len = get(key, value, sizeof(value));
        if (len >= 0) {
            result.hits++;
            result.valueBytesRead += static_cast<std::uint64_t>(len);
            // Spot-check payload integrity on a sample of gets.
            if ((result.hits & 1023u) == 0 && len > 0) {
                TFM_ASSERT(value[0] ==
                               static_cast<std::uint8_t>(key * 131),
                           "memcached value corrupted");
            }
        }
    }
    result.delta = deltaSince(before, snapshot(b));
    return result;
}

} // namespace tfm
