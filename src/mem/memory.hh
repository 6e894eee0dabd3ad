/**
 * @file
 * Flat byte-addressable memory with natural-alignment enforcement.
 *
 * Little-endian, like the image encoder. Misaligned or out-of-range
 * accesses raise FatalError (they indicate a bug in the guest program
 * or compiler, not in the library).
 */

#ifndef D16SIM_MEM_MEMORY_HH
#define D16SIM_MEM_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "asm/image.hh"
#include "support/error.hh"
#include "support/strings.hh"

namespace d16sim::mem
{

class Memory
{
  public:
    /** Zeroed guest memory from calloc: a large block comes straight
     *  from the OS as zero pages, so a run pays only for the pages it
     *  touches. */
    explicit Memory(uint32_t size)
        : bytes_(static_cast<uint8_t *>(std::calloc(size, 1))), size_(size)
    {
        if (size && !bytes_)
            throw std::bad_alloc();
    }

    uint32_t size() const { return size_; }

    /** Copy an image's text+data into place. */
    void
    loadImage(const assem::Image &img)
    {
        check(img.textBase, static_cast<uint32_t>(img.bytes.size()), 1);
        std::copy(img.bytes.begin(), img.bytes.end(),
                  bytes_.get() + img.textBase);
    }

    uint8_t
    read8(uint32_t addr) const
    {
        check(addr, 1, 1);
        return bytes_[addr];
    }

    uint16_t
    read16(uint32_t addr) const
    {
        check(addr, 2, 2);
        return static_cast<uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
    }

    uint32_t
    read32(uint32_t addr) const
    {
        check(addr, 4, 4);
        return static_cast<uint32_t>(bytes_[addr]) |
               (static_cast<uint32_t>(bytes_[addr + 1]) << 8) |
               (static_cast<uint32_t>(bytes_[addr + 2]) << 16) |
               (static_cast<uint32_t>(bytes_[addr + 3]) << 24);
    }

    void
    write8(uint32_t addr, uint8_t v)
    {
        check(addr, 1, 1);
        bytes_[addr] = v;
    }

    void
    write16(uint32_t addr, uint16_t v)
    {
        check(addr, 2, 2);
        bytes_[addr] = static_cast<uint8_t>(v);
        bytes_[addr + 1] = static_cast<uint8_t>(v >> 8);
    }

    void
    write32(uint32_t addr, uint32_t v)
    {
        check(addr, 4, 4);
        bytes_[addr] = static_cast<uint8_t>(v);
        bytes_[addr + 1] = static_cast<uint8_t>(v >> 8);
        bytes_[addr + 2] = static_cast<uint8_t>(v >> 16);
        bytes_[addr + 3] = static_cast<uint8_t>(v >> 24);
    }

    /** Read a NUL-terminated guest string (for trap services). */
    std::string
    readString(uint32_t addr, uint32_t maxLen = 1 << 20) const
    {
        std::string out;
        while (out.size() < maxLen) {
            const uint8_t c = read8(addr++);
            if (!c)
                break;
            out.push_back(static_cast<char>(c));
        }
        return out;
    }

  private:
    void
    check(uint32_t addr, uint32_t len, uint32_t align) const
    {
        if (addr % align != 0) {
            fatal("misaligned ", len, "-byte access at address ",
                  hexString(addr));
        }
        if (addr + len > size_ || addr + len < addr) {
            fatal("memory access out of range at address ",
                  hexString(addr));
        }
    }

    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], Free> bytes_;
    uint32_t size_;
};

} // namespace d16sim::mem

#endif // D16SIM_MEM_MEMORY_HH
