#include "soc/run_io.hh"

#include <concepts>
#include <limits>

#include "sim/logging.hh"

namespace bvl
{

namespace
{

/** How a field-list member is written and read. */
enum Presence
{
    always,     ///< always written; absent (or null) reads as default
    omitEmpty,  ///< written only when non-empty
    required,   ///< always written; absent fails the read
};

// --- the field lists: each persisted member, in document order ---------
//
// A std::optional member is written only when it holds a value.

template <class V>
void
fields(V &v, CheckOptions &c)
{
    v("lockstep", c.lockstep);
    v("invariants", c.invariants);
    v("retireContext", c.retireContext);
    v("invariantPeriod", c.invariantPeriod);
    v("forensicsPath", c.forensicsPath);
}

template <class V>
void
fields(V &v, TraceOptions &t)
{
    v("path", t.path);
    v("samplePath", t.samplePath);
    v("startNs", t.startNs);
    v("stopNs", t.stopNs);
    v("categories", t.categories);
    v("sampleIntervalNs", t.sampleIntervalNs);
}

template <class V>
void
fields(V &v, SamplingOptions &s)
{
    v("ffInsts", s.ffInsts);
    v("warmupInsts", s.warmupInsts);
    v("detailInsts", s.detailInsts);
    v("periods", s.periods);
}

template <class V>
void
fields(V &v, CheckpointOptions &c)
{
    v("savePath", c.savePath);
    v("restorePath", c.restorePath);
    v("ffInsts", c.ffInsts);
    v("farm", c.farm);
    v("farmDir", c.farmDir);
    v("strict", c.strict);
}

template <class V>
void
fields(V &v, FuLatencies &f)
{
    v("intAlu", f.intAlu);
    v("intMul", f.intMul);
    v("intDiv", f.intDiv);
    v("fpAdd", f.fpAdd);
    v("fpMul", f.fpMul);
    v("fpDiv", f.fpDiv);
    v("mem", f.mem);
    v("branch", f.branch);
}

template <class V>
void
fields(V &v, VEngineParams &p)
{
    v("name", p.name);
    v("lanePrefix", p.lanePrefix);
    v("numLanes", p.numLanes);
    v("chimes", p.chimes);
    v("packed", p.packed);
    v("cmdQueueDepth", p.cmdQueueDepth);
    v("uopQueueDepth", p.uopQueueDepth);
    v("dataQueueDepth", p.dataQueueDepth);
    v("laneUopQueueDepth", p.laneUopQueueDepth);
    v("vmiuQueueDepth", p.vmiuQueueDepth);
    v("loadQueueLines", p.loadQueueLines);
    v("storeQueueLines", p.storeQueueLines);
    v("storeCamEntries", p.storeCamEntries);
    v("coalesceWindow", p.coalesceWindow);
    v("switchPenalty", p.switchPenalty);
    v("fu", p.fu);
    v("memPath", p.memPath, memPathNames);
    v("controlsL1Mode", p.controlsL1Mode);
    v("headDispatch", p.headDispatch);
}

template <class V>
void
fields(V &v, ScriptedFault &f)
{
    v("atTick", f.atTick);
    v("kind", f.kind, faultKindNames, required);
    v("cycles", f.cycles);
}

template <class V>
void
fields(V &v, FaultSpec &s)
{
    v("enabled", s.enabled);
    v("seed", s.seed);
    v("memDelayProb", s.memDelayProb);
    v("memDelayCycles", s.memDelayCycles);
    v("cacheDelayProb", s.cacheDelayProb);
    v("cacheDelayCycles", s.cacheDelayCycles);
    v("vcuStallProb", s.vcuStallProb);
    v("vcuStallCycles", s.vcuStallCycles);
    v("vmuDropProb", s.vmuDropProb);
    v("vmuMaxRetries", s.vmuMaxRetries);
    v("vmuRetryDelay", s.vmuRetryDelay);
    v("script", s.script);
}

template <class V>
void
fields(V &v, RunOptions &o)
{
    v("bigGhz", o.bigGhz);
    v("littleGhz", o.littleGhz);
    v("limitNs", o.limitNs);
    v("verifyResult", o.verifyResult);
    v("watchdog", o.watchdog);
    v("watchdogIntervalNs", o.watchdogIntervalNs);
    v("wallDeadlineSec", o.wallDeadlineSec);
    v("engineOverride", o.engineOverride);
    v("faults", o.faults);
    v("check", o.check);
    v("trace", o.trace);
    v("sampling", o.sampling);
    v("checkpoint", o.checkpoint);
}

template <class V>
void
fields(V &v, Watchdog::Heartbeat &h)
{
    v("name", h.name);
    v("progress", h.progress);
    v("lastAdvance", h.lastAdvance);
    v("detail", h.detail);
}

template <class V>
void
fields(V &v, DivergenceRecord &d)
{
    v("stream", d.stream);
    v("seq", d.seq);
    v("tick", d.tick);
    v("instr", d.instr);
    v("field", d.field);
    v("timedValue", d.timedValue);
    v("refValue", d.refValue);
    v("chime", d.chime);
    v("queueContext", d.queueContext);
    v("lastRetires", d.lastRetires);
}

template <class V>
void
fields(V &v, RunResult &r)
{
    v("workload", r.workload);
    v("design", r.design);
    v("status", r.status, runStatusNames, required);
    v("message", r.message);
    v("log", r.log);
    v("finished", r.finished);
    v("verified", r.verified);
    v("ns", r.ns);
    v("ifetchReqs", r.ifetchReqs);
    v("dataReqs", r.dataReqs);
    v("bigFetched", r.bigFetched);
    v("stats", r.stats);
    v("heartbeats", r.heartbeats, omitEmpty);
    v("divergence", r.divergence);
    v("invariantViolations", r.invariantViolations, omitEmpty);
}

template <class V>
void
fields(V &v, SweepJob &j)
{
    v("design", j.design, designNames, required);
    v("workload", j.workload, required);
    v("scale", j.scale, scaleNames, required);
    v("options", j.opts);
}

// --- the two visitors ----------------------------------------------------

/** Builds a JSON object from a field list. */
struct Writer
{
    Json out = Json::object();

    template <class T>
    void
    operator()(const char *key, const T &field, Presence p = always)
    {
        if constexpr (requires { field.empty(); }) {
            if (p == omitEmpty && field.empty())
                return;
        }
        out.set(key, toJson(field));
    }

    template <class T>
    void
    operator()(const char *key, const std::optional<T> &field)
    {
        if (field)
            out.set(key, toJson(*field));
    }

    template <class E, std::size_t N>
    void
    operator()(const char *key, E field, const NameTable<E, N> &names,
               Presence = always)
    {
        out.set(key, names.name(field));
    }

    /** Numbers keep their C++ kind (unsigned, signed or double). */
    template <class T>
    static Json
    toJson(const T &value)
    {
        if constexpr (std::is_arithmetic_v<T> ||
                      std::is_same_v<T, std::string>) {
            return Json(value);
        } else {
            // The writer only reads the fields it is handed.
            Writer w;
            fields(w, const_cast<T &>(value));
            return std::move(w.out);
        }
    }

    template <class T>
    static Json
    toJson(const std::vector<T> &items)
    {
        Json arr = Json::array();
        for (const T &item : items)
            arr.push(toJson(item));
        return arr;
    }

    static Json
    toJson(const std::map<std::string, std::uint64_t> &m)
    {
        Json obj = Json::object();
        for (const auto &kv : m)
            obj.set(kv.first, kv.second);
        return obj;
    }
};

/**
 * Fills a struct from a JSON object through its field list. Absent
 * and null members keep their defaults; a member of the wrong kind, a
 * number outside its field's range and an unknown enum name throw
 * SimFatalError naming the member's path.
 */
class Reader
{
  public:
    Reader(const Json &obj, std::string prefix)
        : obj(obj), prefix(std::move(prefix))
    {}

    template <class T>
    void
    operator()(const char *key, T &field, Presence p = always)
    {
        if (const Json *m = member(key, p))
            read(*m, field, key);
    }

    template <class E, std::size_t N>
    void
    operator()(const char *key, E &field, const NameTable<E, N> &names,
               Presence p = always)
    {
        const Json *m = member(key, p);
        if (!m)
            return;
        expect(*m, Json::Kind::string, key, "a string");
        std::optional<E> e = names.parse(m->asString());
        if (!e)
            fail(key, "must be one of " + names.choices() + ", got " +
                          m->dump(0));
        field = *e;
    }

  private:
    const Json &obj;
    std::string prefix;   ///< "outer.inner." path of obj

    const Json *
    member(const char *key, Presence p) const
    {
        const Json &m = obj[key];
        if (!m.isNull())
            return &m;
        if (p == required)
            fail(key, "is missing");
        return nullptr;
    }

    [[noreturn]] void
    fail(std::string_view key, const std::string &what) const
    {
        fatal("run document: member '%s%.*s' %s", prefix.c_str(),
              static_cast<int>(key.size()), key.data(), what.c_str());
    }

    void
    expect(const Json &m, Json::Kind kind, std::string_view key,
           const char *kindName) const
    {
        if (m.kind() != kind)
            fail(key, std::string("must be ") + kindName + ", got " +
                          m.dump(0));
    }

    void
    read(const Json &m, bool &field, std::string_view key) const
    {
        expect(m, Json::Kind::boolean, key, "a boolean");
        field = m.asBool();
    }

    void
    read(const Json &m, double &field, std::string_view key) const
    {
        expect(m, Json::Kind::number, key, "a number");
        field = m.asDouble();
    }

    void
    read(const Json &m, std::string &field, std::string_view key) const
    {
        expect(m, Json::Kind::string, key, "a string");
        field = m.asString();
    }

    template <std::integral T>
    void
    read(const Json &m, T &field, std::string_view key) const
    {
        using Limits = std::numeric_limits<T>;
        bool ok = m.kind() == Json::Kind::number && m.isInteger();
        bool negative = ok && m.asDouble() < 0;
        if (negative)
            ok = m.asI64() >= static_cast<std::int64_t>(Limits::min());
        else if (ok)
            ok = m.asU64() <= static_cast<std::uint64_t>(Limits::max());
        if (!ok)
            fail(key, "must be an integer in [" +
                          std::to_string(Limits::min()) + ", " +
                          std::to_string(Limits::max()) + "], got " +
                          m.dump(0));
        field = negative ? static_cast<T>(m.asI64())
                         : static_cast<T>(m.asU64());
    }

    /** A nested struct with its own field list. */
    template <class T>
    void
    read(const Json &m, T &field, std::string_view key) const
    {
        expect(m, Json::Kind::object, key, "an object");
        Reader nested(m, prefix + std::string(key) + ".");
        fields(nested, field);
    }

    template <class T>
    void
    read(const Json &m, std::optional<T> &field, std::string_view key) const
    {
        T value;
        read(m, value, key);
        field = std::move(value);
    }

    template <class T>
    void
    read(const Json &m, std::vector<T> &field, std::string_view key) const
    {
        expect(m, Json::Kind::array, key, "an array");
        field.clear();
        for (std::size_t i = 0; i < m.size(); ++i) {
            T item;
            read(m.at(i), item,
                 std::string(key) + "[" + std::to_string(i) + "]");
            field.push_back(std::move(item));
        }
    }

    void
    read(const Json &m, std::map<std::string, std::uint64_t> &field,
         std::string_view key) const
    {
        expect(m, Json::Kind::object, key, "an object");
        Reader nested(m, prefix + std::string(key) + ".");
        for (const auto &kv : m.members())
            nested.read(kv.second, field[kv.first], kv.first);
    }
};

template <class T>
T
fromJson(const Json &doc)
{
    if (doc.kind() != Json::Kind::object)
        fatal("run document: expected an object, got %s",
              doc.dump(0).c_str());
    T out;
    Reader top(doc, "");
    fields(top, out);
    return out;
}

} // namespace

Json
runOptionsToJson(const RunOptions &o)
{
    return Writer::toJson(o);
}

RunOptions
runOptionsFromJson(const Json &j)
{
    return fromJson<RunOptions>(j);
}

Json
runResultToJson(const RunResult &r)
{
    return Writer::toJson(r);
}

RunResult
runResultFromJson(const Json &j)
{
    return fromJson<RunResult>(j);
}

Json
heartbeatsToJson(const std::vector<Watchdog::Heartbeat> &beats)
{
    return Writer::toJson(beats);
}

Json
divergenceToJson(const DivergenceRecord &d)
{
    return Writer::toJson(d);
}

Json
replayRecipeToJson(const SweepJob &recipe)
{
    return Writer::toJson(recipe);
}

SweepJob
replayRecipeFromJson(const Json &j)
{
    return fromJson<SweepJob>(j);
}

} // namespace bvl
