#include "asm/image.hh"

#include <algorithm>

namespace d16sim::assem
{

namespace
{

/** "D16I", as the little-endian word putU32 writes it. */
constexpr uint32_t kImageMagic = 0x49363144;
constexpr uint32_t kImageVersion = 1;

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/** Bounds-checked little-endian reader over the serialized bytes. */
struct Reader
{
    const std::vector<uint8_t> &bytes;
    size_t pos = 0;

    void
    need(size_t n) const
    {
        if (bytes.size() - pos < n)
            fatal("image deserialize: truncated at offset ", pos);
    }

    uint32_t
    u32()
    {
        need(4);
        const uint32_t v = static_cast<uint32_t>(bytes[pos]) |
                           static_cast<uint32_t>(bytes[pos + 1]) << 8 |
                           static_cast<uint32_t>(bytes[pos + 2]) << 16 |
                           static_cast<uint32_t>(bytes[pos + 3]) << 24;
        pos += 4;
        return v;
    }

    std::string
    string()
    {
        const uint32_t len = u32();
        need(len);
        std::string s(bytes.begin() + static_cast<ptrdiff_t>(pos),
                      bytes.begin() + static_cast<ptrdiff_t>(pos + len));
        pos += len;
        return s;
    }
};

} // namespace

std::vector<std::pair<uint32_t, std::string>>
Image::textSymbols() const
{
    std::vector<std::pair<uint32_t, std::string>> out;
    for (const auto &[name, addr] : symbols) {
        if (addr >= textBase && addr < textBase + textSize)
            out.emplace_back(addr, name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint8_t>
Image::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(64 + bytes.size() + 16 * symbols.size() +
                8 * insnSites.size());
    putU32(out, kImageMagic);
    putU32(out, kImageVersion);
    putU32(out, static_cast<uint32_t>(target->kind()));
    putU32(out, textBase);
    putU32(out, textSize);
    putU32(out, dataBase);
    putU32(out, dataSize);
    putU32(out, bssSize);
    putU32(out, entry);
    putU32(out, textInsns);
    putU32(out, static_cast<uint32_t>(bytes.size()));
    out.insert(out.end(), bytes.begin(), bytes.end());
    putU32(out, static_cast<uint32_t>(symbols.size()));
    for (const auto &[name, addr] : symbols) { // map order: canonical
        putString(out, name);
        putU32(out, addr);
    }
    putU32(out, static_cast<uint32_t>(insnSites.size()));
    for (const InsnSite &site : insnSites) {
        putU32(out, site.addr);
        putU32(out, static_cast<uint32_t>(site.line));
    }
    return out;
}

Image
Image::deserialize(const std::vector<uint8_t> &data)
{
    Reader r{data};
    if (r.u32() != kImageMagic)
        fatal("image deserialize: bad magic");
    const uint32_t version = r.u32();
    if (version != kImageVersion)
        fatal("image deserialize: version ", version, ", want ",
              kImageVersion);

    Image img;
    const uint32_t kind = r.u32();
    if (kind > static_cast<uint32_t>(isa::IsaKind::DLXe))
        fatal("image deserialize: unknown isa kind ", kind);
    img.target = &isa::TargetInfo::get(static_cast<isa::IsaKind>(kind));
    img.textBase = r.u32();
    img.textSize = r.u32();
    img.dataBase = r.u32();
    img.dataSize = r.u32();
    img.bssSize = r.u32();
    img.entry = r.u32();
    img.textInsns = r.u32();

    const uint32_t byteCount = r.u32();
    r.need(byteCount);
    img.bytes.assign(data.begin() + static_cast<ptrdiff_t>(r.pos),
                     data.begin() +
                         static_cast<ptrdiff_t>(r.pos + byteCount));
    r.pos += byteCount;

    const uint32_t symbolCount = r.u32();
    for (uint32_t i = 0; i < symbolCount; ++i) {
        std::string name = r.string();
        const uint32_t addr = r.u32();
        img.symbols.emplace(std::move(name), addr);
    }

    const uint32_t siteCount = r.u32();
    img.insnSites.reserve(siteCount);
    for (uint32_t i = 0; i < siteCount; ++i) {
        InsnSite site;
        site.addr = r.u32();
        site.line = static_cast<int>(r.u32());
        img.insnSites.push_back(site);
    }
    if (r.pos != data.size())
        fatal("image deserialize: ", data.size() - r.pos,
              " trailing bytes");
    return img;
}

} // namespace d16sim::assem
