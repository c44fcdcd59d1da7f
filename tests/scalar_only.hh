/**
 * @file
 * Test-only MemoryInterface decorator that forwards just the scalar
 * seams, shared by the trace and transposed-chip suites.
 */

#ifndef BEER_TESTS_SCALAR_ONLY_HH
#define BEER_TESTS_SCALAR_ONLY_HH

#include "dram/memory_interface.hh"

namespace beer::test
{

/**
 * Forwards only the scalar MemoryInterface seams to the wrapped
 * backend. Batched writes and reads fall back to the base class's
 * per-word loops and the planar read seam declines, so a caller sees
 * the same backend without any of its batched or planar paths.
 */
class ScalarOnly : public dram::MemoryInterface
{
  public:
    explicit ScalarOnly(dram::MemoryInterface &inner) : inner_(inner) {}
    const dram::AddressMap &addressMap() const override
    {
        return inner_.addressMap();
    }
    std::size_t datawordBits() const override
    {
        return inner_.datawordBits();
    }
    void writeDataword(std::size_t word, const gf2::BitVec &d) override
    {
        inner_.writeDataword(word, d);
    }
    gf2::BitVec readDataword(std::size_t word) override
    {
        return inner_.readDataword(word);
    }
    void writeByte(std::size_t addr, std::uint8_t value) override
    {
        inner_.writeByte(addr, value);
    }
    std::uint8_t readByte(std::size_t addr) override
    {
        return inner_.readByte(addr);
    }
    void fill(std::uint8_t value) override { inner_.fill(value); }
    void pauseRefresh(double seconds, double temp_c) override
    {
        inner_.pauseRefresh(seconds, temp_c);
    }

  private:
    dram::MemoryInterface &inner_;
};

} // namespace beer::test

#endif // BEER_TESTS_SCALAR_ONLY_HH
