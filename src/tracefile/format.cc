#include "tracefile/format.hh"

#include <array>

namespace wcrt {
namespace tracefile {

namespace {

/**
 * Slicing-by-8 CRC tables: table[0] is the classic byte-wise table,
 * table[j][b] extends it so eight input bytes fold in per iteration.
 */
std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (int j = 1; j < 8; ++j)
        for (uint32_t i = 0; i < 256; ++i)
            tables[j][i] = tables[0][tables[j - 1][i] & 0xff] ^
                           (tables[j - 1][i] >> 8);
    return tables;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t len)
{
    static const auto tables = makeCrcTables();
    const auto &t = tables;
    uint32_t c = 0xffffffffu;
    while (len >= 8) {
        c ^= static_cast<uint32_t>(data[0]) |
             static_cast<uint32_t>(data[1]) << 8 |
             static_cast<uint32_t>(data[2]) << 16 |
             static_cast<uint32_t>(data[3]) << 24;
        c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^
            t[5][(c >> 16) & 0xff] ^ t[4][c >> 24] ^ t[3][data[4]] ^
            t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
        data += 8;
        len -= 8;
    }
    while (len--)
        c = t[0][(c ^ *data++) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putVarint(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

void
Decoder::throwTruncated(const char *what)
{
    throw TraceFormatError(std::string("trace payload truncated (") +
                           what + ")");
}

void
Decoder::throwMalformedVarint()
{
    throw TraceFormatError("malformed varint (more than 10 bytes)");
}

std::string
Decoder::string()
{
    uint64_t len = varint();
    if (len > remaining())
        throw TraceFormatError("trace payload truncated (string)");
    std::string s(reinterpret_cast<const char *>(cur),
                  static_cast<size_t>(len));
    cur += len;
    return s;
}

} // namespace tracefile

const char *
toString(OpKind k)
{
    switch (k) {
      case OpKind::IntAlu: return "IntAlu";
      case OpKind::IntMul: return "IntMul";
      case OpKind::IntDiv: return "IntDiv";
      case OpKind::FpAlu: return "FpAlu";
      case OpKind::FpMul: return "FpMul";
      case OpKind::FpDiv: return "FpDiv";
      case OpKind::Load: return "Load";
      case OpKind::Store: return "Store";
      case OpKind::BranchCond: return "BranchCond";
      case OpKind::BranchUncond: return "BranchUncond";
      case OpKind::BranchIndirect: return "BranchIndirect";
      case OpKind::Call: return "Call";
      case OpKind::CallIndirect: return "CallIndirect";
      case OpKind::Return: return "Return";
      case OpKind::Other: return "Other";
    }
    return "?";
}

} // namespace wcrt
