#include "stream.hh"

#include "sim/logging.hh"

namespace tfm
{

double
StreamResult::bandwidthMBps(double cpu_ghz) const
{
    if (delta.cycles == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(delta.cycles) / (cpu_ghz * 1e9);
    return static_cast<double>(bytesTouched) / 1e6 / seconds;
}

StreamWorkload::StreamWorkload(MemBackend &backend, std::uint64_t elements,
                               int arrays, std::uint32_t element_bytes)
    : b(backend), n(elements), numArrays(arrays), elemBytes(element_bytes)
{
    TFM_ASSERT(arrays == 2 || arrays == 3, "stream uses 2 or 3 arrays");
    TFM_ASSERT(element_bytes == 4 || element_bytes == 8,
               "stream elements are 4 or 8 bytes");
    srcAddr = b.alloc(n * elemBytes);
    dstAddr = b.allocZeroed(n * elemBytes);
    if (arrays == 3)
        thirdAddr = b.allocZeroed(n * elemBytes);
    {
        InitWriter src(b, srcAddr);
        for (std::uint64_t i = 0; i < n; i++)
            putElem(src, valueAt(i));
    }
    b.dropCaches();
}

std::int64_t
StreamWorkload::readElem(SeqStream &stream)
{
    if (elemBytes == 4) {
        std::int32_t value;
        stream.read(&value);
        return value;
    }
    std::int64_t value;
    stream.read(&value);
    return value;
}

void
StreamWorkload::writeElem(SeqStream &stream, std::int64_t value)
{
    if (elemBytes == 4) {
        const auto narrow = static_cast<std::int32_t>(value);
        stream.write(&narrow);
        return;
    }
    stream.write(&value);
}

void
StreamWorkload::putElem(InitWriter &out, std::int64_t value) const
{
    if (elemBytes == 4)
        out.put(static_cast<std::int32_t>(value));
    else
        out.put(value);
}

std::int64_t
StreamWorkload::peekElem(std::uint64_t base, std::uint64_t index)
{
    if (elemBytes == 4)
        return b.peekT<std::int32_t>(base + index * 4);
    return b.peekT<std::int64_t>(base + index * 8);
}

std::uint64_t
StreamWorkload::workingSetBytes() const
{
    return static_cast<std::uint64_t>(numArrays) * n * elemBytes;
}

std::int64_t
StreamWorkload::expectedSum() const
{
    std::int64_t sum = 0;
    for (std::uint64_t i = 0; i < n; i++)
        sum += valueAt(i);
    return sum;
}

StreamResult
StreamWorkload::runSum(int passes)
{
    StreamResult result;
    const BackendSnapshot before = snapshot(b);
    std::int64_t sum = 0;
    for (int p = 0; p < passes; p++) {
        auto src = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        for (std::uint64_t i = 0; i < n; i++)
            sum += readElem(*src);
    }
    result.delta = deltaSince(before, snapshot(b));
    result.checksum = sum;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * n * elemBytes;
    return result;
}

StreamResult
StreamWorkload::runCopy(int passes)
{
    StreamResult result;
    const BackendSnapshot before = snapshot(b);
    std::int64_t last = 0;
    for (int p = 0; p < passes; p++) {
        auto src = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        auto dst = b.stream(dstAddr, elemBytes, n, StreamMode::Write);
        for (std::uint64_t i = 0; i < n; i++) {
            const std::int64_t value = readElem(*src);
            writeElem(*dst, value);
            last = value;
        }
    }
    result.delta = deltaSince(before, snapshot(b));
    result.checksum = last;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * 2 * n * elemBytes;
    return result;
}

StreamResult
StreamWorkload::runTriad(int passes, std::int64_t scale)
{
    TFM_ASSERT(numArrays == 3, "triad needs a third array");
    StreamResult result;
    const BackendSnapshot before = snapshot(b);
    std::int64_t last = 0;
    for (int p = 0; p < passes; p++) {
        auto a = b.stream(srcAddr, elemBytes, n, StreamMode::Read);
        auto bb = b.stream(dstAddr, elemBytes, n, StreamMode::Read);
        auto c = b.stream(thirdAddr, elemBytes, n, StreamMode::Write);
        for (std::uint64_t i = 0; i < n; i++) {
            const std::int64_t va = readElem(*a);
            const std::int64_t vb = readElem(*bb);
            const std::int64_t vc = va + scale * vb;
            b.compute(1);
            writeElem(*c, vc);
            last = vc;
        }
    }
    result.delta = deltaSince(before, snapshot(b));
    result.checksum = last;
    result.bytesTouched =
        static_cast<std::uint64_t>(passes) * 3 * n * elemBytes;
    return result;
}

bool
StreamWorkload::verifyCopy()
{
    for (std::uint64_t i = 0; i < n; i++) {
        if (peekElem(srcAddr, i) != peekElem(dstAddr, i))
            return false;
    }
    return true;
}

} // namespace tfm
