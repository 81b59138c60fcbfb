#include "sim/check/forensics.hh"

#include "sim/io/sim_io.hh"
#include "sim/logging.hh"
#include "soc/run_io.hh"

namespace bvl
{

const char *
scaleName(Scale s)
{
    switch (s) {
      case Scale::tiny: return "tiny";
      case Scale::small: return "small";
      case Scale::medium: return "medium";
    }
    return "?";
}

namespace
{

Scale
parseScale(const std::string &name)
{
    for (Scale s : {Scale::tiny, Scale::small, Scale::medium})
        if (name == scaleName(s))
            return s;
    fatal("replay recipe: unknown scale '%s'", name.c_str());
}

Design
parseDesign(const std::string &name)
{
    for (Design d : {Design::d1L, Design::d1b, Design::d1bIV,
                     Design::d1b4L, Design::d1bIV4L, Design::d1bDV,
                     Design::d1b4VL})
        if (name == designName(d))
            return d;
    fatal("replay recipe: unknown design '%s'", name.c_str());
}

FaultKind
parseFaultKind(const std::string &name)
{
    for (FaultKind k : {FaultKind::memDelay, FaultKind::cacheDelay,
                        FaultKind::vcuStall, FaultKind::vmuDrop})
        if (name == faultKindName(k))
            return k;
    fatal("replay recipe: unknown fault kind '%s'", name.c_str());
}

} // namespace

Json
faultSpecToJson(const FaultSpec &spec)
{
    Json j = Json::object();
    j.set("enabled", spec.enabled);
    j.set("seed", spec.seed);
    j.set("memDelayProb", spec.memDelayProb);
    j.set("memDelayCycles", spec.memDelayCycles);
    j.set("cacheDelayProb", spec.cacheDelayProb);
    j.set("cacheDelayCycles", spec.cacheDelayCycles);
    j.set("vcuStallProb", spec.vcuStallProb);
    j.set("vcuStallCycles", spec.vcuStallCycles);
    j.set("vmuDropProb", spec.vmuDropProb);
    j.set("vmuMaxRetries", spec.vmuMaxRetries);
    j.set("vmuRetryDelay", spec.vmuRetryDelay);
    Json script = Json::array();
    for (const auto &f : spec.script) {
        Json e = Json::object();
        e.set("atTick", f.atTick);
        e.set("kind", faultKindName(f.kind));
        e.set("cycles", f.cycles);
        script.push(std::move(e));
    }
    j.set("script", std::move(script));
    return j;
}

FaultSpec
faultSpecFromJson(const Json &j)
{
    FaultSpec spec;
    if (j.isNull())
        return spec;
    if (j.has("enabled"))
        spec.enabled = j["enabled"].asBool();
    if (j.has("seed"))
        spec.seed = j["seed"].asU64();
    if (j.has("memDelayProb"))
        spec.memDelayProb = j["memDelayProb"].asDouble();
    if (j.has("memDelayCycles"))
        spec.memDelayCycles = j["memDelayCycles"].asU64();
    if (j.has("cacheDelayProb"))
        spec.cacheDelayProb = j["cacheDelayProb"].asDouble();
    if (j.has("cacheDelayCycles"))
        spec.cacheDelayCycles = j["cacheDelayCycles"].asU64();
    if (j.has("vcuStallProb"))
        spec.vcuStallProb = j["vcuStallProb"].asDouble();
    if (j.has("vcuStallCycles"))
        spec.vcuStallCycles = j["vcuStallCycles"].asU64();
    if (j.has("vmuDropProb"))
        spec.vmuDropProb = j["vmuDropProb"].asDouble();
    if (j.has("vmuMaxRetries"))
        spec.vmuMaxRetries =
            static_cast<unsigned>(j["vmuMaxRetries"].asU64());
    if (j.has("vmuRetryDelay"))
        spec.vmuRetryDelay = j["vmuRetryDelay"].asU64();
    for (const auto &e : j["script"].items()) {
        ScriptedFault f;
        f.atTick = e["atTick"].asU64();
        f.kind = parseFaultKind(e["kind"].asString());
        f.cycles = e["cycles"].asU64();
        spec.script.push_back(f);
    }
    return spec;
}

Json
replayRecipeToJson(const SweepJob &recipe)
{
    Json j = Json::object();
    j.set("design", designName(recipe.design));
    j.set("workload", recipe.workload);
    j.set("scale", scaleName(recipe.scale));
    j.set("options", runOptionsToJson(recipe.opts));
    return j;
}

SweepJob
replayRecipeFromJson(const Json &j)
{
    if (!j.has("design") || !j.has("workload") || !j.has("scale"))
        fatal("replay recipe: missing design/workload/scale");
    SweepJob recipe;
    recipe.design = parseDesign(j["design"].asString());
    recipe.workload = j["workload"].asString();
    recipe.scale = parseScale(j["scale"].asString());
    recipe.opts = runOptionsFromJson(j["options"]);
    return recipe;
}

Json
buildFailureReport(const RunResult &r, const SweepJob &recipe)
{
    Json j = Json::object();
    j.set("schema", "bvl-failure-report-v1");
    j.set("status", runStatusName(r.status));
    j.set("workload", r.workload);
    j.set("design", r.design);
    j.set("message", r.message);
    j.set("finished", r.finished);
    j.set("verified", r.verified);
    j.set("ns", r.ns);

    j.set("heartbeats", heartbeatsToJson(r.heartbeats));
    j.set("divergence",
          r.divergence ? divergenceToJson(*r.divergence) : Json());

    j.set("invariantViolations", r.invariantViolations);
    j.set("log", r.log);

    Json stats = Json::object();
    for (const auto &kv : r.stats)
        stats.set(kv.first, kv.second);
    j.set("stats", std::move(stats));

    j.set("replay", replayRecipeToJson(recipe));
    return j;
}

bool
writeFailureReport(const std::string &path, const RunResult &r,
                   const SweepJob &recipe)
{
    // A report that cannot be written costs a warning, never the
    // run's own status — the failure being reported is the news, not
    // the reporting. Atomic publish so a torn report is never
    // mistaken for a complete one.
    std::string text = buildFailureReport(r, recipe).dump(2);
    text += '\n';
    std::string err;
    if (!io::writeFileAtomic("forensics.report", path, text, &err)) {
        warn("forensics: short write of failure report %s (%s)",
             path.c_str(), err.c_str());
        return false;
    }
    return true;
}

SweepJob
loadReplayJob(const std::string &path)
{
    std::string text;
    std::string err;
    if (!io::readFile("forensics.recipe.read", path, &text, nullptr,
                      &err))
        fatal("forensics: cannot read %s: %s", path.c_str(),
              err.c_str());
    Json doc = Json::parse(text);
    // Accept a full failure report or a bare recipe document.
    const Json &recipe = doc.has("replay") ? doc["replay"] : doc;
    return replayRecipeFromJson(recipe);
}

RunResult
runReplay(const SweepJob &recipe)
{
    SweepJob rerun = recipe;
    // Never clobber the report being replayed from.
    rerun.opts.check.forensicsPath.clear();
    return runWorkload(rerun.design, rerun.workload, rerun.scale,
                       rerun.opts);
}

} // namespace bvl
