/**
 * @file
 * Minimal self-contained JSON value type, writer and parser.
 *
 * The forensics subsystem serializes failure reports and replay
 * recipes as JSON so they can be archived, diffed and fed back into
 * the simulator. The repo deliberately has no third-party
 * dependencies beyond the test/bench frameworks, so this is a small
 * hand-rolled implementation covering exactly what the reports need:
 * null/bool/number/string/array/object, 64-bit-exact integers (seeds
 * and ticks do not fit a double), and a strict recursive-descent
 * parser that throws SimFatalError on malformed input.
 *
 * Objects preserve insertion order so reports are stable and
 * diff-friendly; lookup is linear, which is fine for the small
 * documents involved.
 */

#ifndef BVL_SIM_CHECK_JSON_HH
#define BVL_SIM_CHECK_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bvl
{

class Json
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Json() = default;
    Json(bool b) : _kind(Kind::boolean), b(b) {}
    Json(double v) : _kind(Kind::number), d(v) {}
    Json(std::uint64_t v)
        : _kind(Kind::number), d(static_cast<double>(v)), u(v),
          integral(true)
    {}
    Json(std::int64_t v)
        : _kind(Kind::number), d(static_cast<double>(v)),
          u(static_cast<std::uint64_t>(v)), integral(true),
          negative(v < 0)
    {}
    Json(int v) : Json(static_cast<std::int64_t>(v)) {}
    Json(unsigned v) : Json(static_cast<std::uint64_t>(v)) {}
    Json(std::string v) : _kind(Kind::string), s(std::move(v)) {}
    Json(const char *v) : _kind(Kind::string), s(v) {}

    static Json
    array()
    {
        Json j;
        j._kind = Kind::array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j._kind = Kind::object;
        return j;
    }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::null; }

    /** True for a number written or parsed as an integer literal. */
    bool isInteger() const { return integral; }

    bool asBool() const { return b; }
    double asDouble() const { return d; }
    /** Exact unsigned value when the token was an integer literal. */
    std::uint64_t
    asU64() const
    {
        return integral ? u : static_cast<std::uint64_t>(d);
    }
    std::int64_t
    asI64() const
    {
        return integral ? static_cast<std::int64_t>(u)
                        : static_cast<std::int64_t>(d);
    }
    const std::string &asString() const { return s; }

    // --- array ---
    std::size_t size() const { return arr.size(); }
    const Json &at(std::size_t i) const { return arr[i]; }
    void push(Json v) { _kind = Kind::array; arr.push_back(std::move(v)); }
    const std::vector<Json> &items() const { return arr; }

    // --- object ---
    void
    set(std::string key, Json v)
    {
        _kind = Kind::object;
        for (auto &kv : obj) {
            if (kv.first == key) {
                kv.second = std::move(v);
                return;
            }
        }
        obj.emplace_back(std::move(key), std::move(v));
    }

    bool has(const std::string &key) const { return find(key) != nullptr; }

    /** Member lookup; returns a shared null value if absent. */
    const Json &operator[](const std::string &key) const;

    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return obj;
    }

    /** Serialize; indent <= 0 emits a single compact line. */
    std::string dump(int indent = 2) const;

    /** Parse a complete document; throws SimFatalError on errors. */
    static Json parse(const std::string &text);

  private:
    const Json *find(const std::string &key) const;
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind _kind = Kind::null;
    bool b = false;
    double d = 0.0;
    std::uint64_t u = 0;
    bool integral = false;
    bool negative = false;
    std::string s;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;
};

} // namespace bvl

#endif // BVL_SIM_CHECK_JSON_HH
