#include "trace/mix_counter.hh"

namespace wcrt {

void
MixCounter::consume(const MicroOp &op)
{
    ++totalOps;
    ++kindCounts[static_cast<size_t>(op.kind)];
    if (op.kind == OpKind::IntAlu) {
        switch (op.purpose) {
          case IntPurpose::IntAddress:
            ++intAddressOps;
            break;
          case IntPurpose::FpAddress:
            ++fpAddressOps;
            break;
          default:
            ++computeIntOps;
            break;
        }
    } else if (isInt(op.kind)) {
        ++computeIntOps;
    }
}

void
MixCounter::consumeBatch(const OpBlockView &ops)
{
    // Tally in stack locals so the loop touches no member state, then
    // commit once per block. The purpose breakdown is branchless — op
    // kinds arrive in data-dependent order, so any per-op branch here
    // is a mispredict, not a hint. Only kinds[] and purposes[] are
    // read: 2 bytes of cache traffic per op.
    std::array<uint64_t, numOpKinds> kinds{};
    uint64_t int_addr = 0, fp_addr = 0, compute = 0;
    for (size_t i = 0; i < ops.count; ++i) {
        OpKind k = ops.kinds[i];
        ++kinds[static_cast<size_t>(k)];
        uint64_t is_alu = k == OpKind::IntAlu;
        uint64_t ia =
            is_alu & (ops.purposes[i] == IntPurpose::IntAddress ? 1u : 0u);
        uint64_t fa =
            is_alu & (ops.purposes[i] == IntPurpose::FpAddress ? 1u : 0u);
        int_addr += ia;
        fp_addr += fa;
        // isInt covers IntAlu too, so subtracting the two address
        // flavours leaves exactly the per-op path's compute bump.
        compute += (isInt(k) ? 1u : 0u) - ia - fa;
    }
    addTallies(kinds, int_addr, fp_addr, compute, ops.count);
}

uint64_t
MixCounter::count(OpKind k) const
{
    return kindCounts[static_cast<size_t>(k)];
}

namespace {

double
ratio(uint64_t part, uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // namespace

double
MixCounter::branchRatio() const
{
    uint64_t b = count(OpKind::BranchCond) + count(OpKind::BranchUncond) +
                 count(OpKind::BranchIndirect) + count(OpKind::Call) +
                 count(OpKind::CallIndirect) + count(OpKind::Return);
    return ratio(b, totalOps);
}

double
MixCounter::loadRatio() const
{
    return ratio(count(OpKind::Load), totalOps);
}

double
MixCounter::storeRatio() const
{
    return ratio(count(OpKind::Store), totalOps);
}

double
MixCounter::integerRatio() const
{
    uint64_t i = count(OpKind::IntAlu) + count(OpKind::IntMul) +
                 count(OpKind::IntDiv);
    return ratio(i, totalOps);
}

double
MixCounter::fpRatio() const
{
    uint64_t f = count(OpKind::FpAlu) + count(OpKind::FpMul) +
                 count(OpKind::FpDiv);
    return ratio(f, totalOps);
}

double
MixCounter::otherRatio() const
{
    return ratio(count(OpKind::Other), totalOps);
}

double
MixCounter::intAddressShare() const
{
    return ratio(intAddressOps,
                 intAddressOps + fpAddressOps + computeIntOps);
}

double
MixCounter::fpAddressShare() const
{
    return ratio(fpAddressOps,
                 intAddressOps + fpAddressOps + computeIntOps);
}

double
MixCounter::otherIntShare() const
{
    return ratio(computeIntOps,
                 intAddressOps + fpAddressOps + computeIntOps);
}

double
MixCounter::dataMovementRatio() const
{
    uint64_t moves = count(OpKind::Load) + count(OpKind::Store) +
                     intAddressOps + fpAddressOps;
    return ratio(moves, totalOps);
}

double
MixCounter::dataMovementWithBranchRatio() const
{
    uint64_t b = count(OpKind::BranchCond) + count(OpKind::BranchUncond) +
                 count(OpKind::BranchIndirect) + count(OpKind::Call) +
                 count(OpKind::CallIndirect) + count(OpKind::Return);
    uint64_t moves = count(OpKind::Load) + count(OpKind::Store) +
                     intAddressOps + fpAddressOps + b;
    return ratio(moves, totalOps);
}

} // namespace wcrt
