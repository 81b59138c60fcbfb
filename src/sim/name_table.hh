/**
 * @file
 * One name table per enum, used both to print a value and to parse it
 * back.
 *
 * Enum values are persisted by name (journal rows, cache entries,
 * failure reports) and typed by name (CLI flags, BVL_IO_FAULT), so a
 * printer and a parser that drift apart would silently misread old
 * documents. Each enum therefore spells its names exactly once, in a
 * NameTable indexed by the enumerator's value; the constructor takes
 * exactly N names, so a table that misses a value does not compile.
 */

#ifndef BVL_SIM_NAME_TABLE_HH
#define BVL_SIM_NAME_TABLE_HH

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace bvl
{

template <class E, std::size_t N>
class NameTable
{
  public:
    template <class... S>
        requires(sizeof...(S) == N)
    constexpr NameTable(S... names) : names{names...}
    {}

    constexpr auto begin() const { return names.begin(); }
    constexpr auto end() const { return names.end(); }

    /** The name of @p e; "?" for a value past the end. */
    constexpr const char *
    name(E e) const
    {
        auto i = static_cast<std::size_t>(e);
        return i < N ? names[i] : "?";
    }

    /** The value named @p s; nullopt when no value has that name. */
    constexpr std::optional<E>
    parse(std::string_view s) const
    {
        for (std::size_t i = 0; i < N; ++i)
            if (s == names[i])
                return static_cast<E>(i);
        return std::nullopt;
    }

    /** Every name, '|'-separated, for usage lines and diagnostics. */
    std::string
    choices() const
    {
        std::string out;
        for (const char *n : names) {
            if (!out.empty())
                out += '|';
            out += n;
        }
        return out;
    }

  private:
    std::array<const char *, N> names;
};

} // namespace bvl

#endif // BVL_SIM_NAME_TABLE_HH
