/**
 * @file
 * Sparse byte-addressable memory for functional kernel execution.
 *
 * Loads in the synthetic traces return genuinely stored values: kernels
 * write through this image and read back from it, so value locality in
 * the traces arises from program behaviour, not from scripted answers.
 *
 * Memory is kept in 4 KiB pages, allocated on first write and found
 * through a FlatMap keyed by page number. The image remembers the last
 * page it found, so an access that stays inside one page costs at most
 * one map probe (none when it hits the remembered page) and no per-byte
 * hashing; an access that straddles a page edge is split into its two
 * in-page parts. A read of an untouched page allocates nothing and is
 * not remembered, so a later write to that page allocates it and a
 * read after that sees the written bytes.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace lvpsim
{
namespace trace
{

class MemoryImage
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr std::size_t pageSize = std::size_t(1) << pageShift;

    /** Read @p size bytes (little endian); untouched bytes read as 0. */
    Value
    read(Addr addr, unsigned size) const
    {
        lvp_assert(size >= 1 && size <= 8, "bad access size %u", size);
        const unsigned inPage = bytesInPage(addr, size);
        Value v = readInPage(addr, inPage);
        if (inPage < size)
            v |= readInPage(addr + inPage, size - inPage) << (8 * inPage);
        return v;
    }

    /** Write the low @p size bytes of @p v (little endian). */
    void
    write(Addr addr, Value v, unsigned size)
    {
        lvp_assert(size >= 1 && size <= 8, "bad access size %u", size);
        const unsigned inPage = bytesInPage(addr, size);
        writeInPage(addr, v, inPage);
        if (inPage < size)
            writeInPage(addr + inPage, v >> (8 * inPage), size - inPage);
    }

    /** Zero [addr, addr+len): the memset in the paper's Listing 1. */
    void
    zeroRange(Addr addr, std::size_t len)
    {
        while (len > 0) {
            const std::size_t off = addr & (pageSize - 1);
            const std::size_t n = std::min(len, pageSize - off);
            std::memset(pageFor(addr) + off, 0, n);
            addr += n;
            len -= n;
        }
    }

    std::size_t numPages() const { return pages.size(); }

  private:
    /** Bytes of [addr, addr+size) that lie in addr's page. */
    static unsigned
    bytesInPage(Addr addr, unsigned size)
    {
        const std::size_t room = pageSize - (addr & (pageSize - 1));
        return room < size ? unsigned(room) : size;
    }

    /** The page holding @p addr, or nullptr if it was never written. */
    std::uint8_t *
    findPage(Addr addr) const
    {
        const Addr num = addr >> pageShift;
        if (lastPage && num == lastNum)
            return lastPage;
        const auto it = pages.find(num);
        if (it == pages.end())
            return nullptr;
        lastNum = num;
        lastPage = it->second;
        return lastPage;
    }

    /** The page holding @p addr, allocated (zero-filled) if absent. */
    std::uint8_t *
    pageFor(Addr addr)
    {
        if (std::uint8_t *p = findPage(addr))
            return p;
        // make_unique<T[]>(n) value-initializes, so fresh pages read 0.
        storage.push_back(std::make_unique<std::uint8_t[]>(pageSize));
        lastNum = addr >> pageShift;
        lastPage = storage.back().get();
        pages.emplace(lastNum, lastPage);
        return lastPage;
    }

    /** Read @p n bytes that all lie in addr's page. */
    Value
    readInPage(Addr addr, unsigned n) const
    {
        const std::uint8_t *page = findPage(addr);
        if (!page)
            return 0;
        const std::uint8_t *p = page + (addr & (pageSize - 1));
        Value v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<Value>(p[i]) << (8 * i);
        return v;
    }

    /** Write the low @p n bytes of @p v, all in addr's page. */
    void
    writeInPage(Addr addr, Value v, unsigned n)
    {
        std::uint8_t *p = pageFor(addr) + (addr & (pageSize - 1));
        for (unsigned i = 0; i < n; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Page number -> page bytes (owned by @c storage). */
    FlatMap<Addr, std::uint8_t *> pages;
    std::vector<std::unique_ptr<std::uint8_t[]>> storage;
    /** The last page found; lastPage is null until one is. */
    mutable Addr lastNum = 0;
    mutable std::uint8_t *lastPage = nullptr;
};

} // namespace trace
} // namespace lvpsim
