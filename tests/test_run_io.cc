/**
 * @file
 * Persisted-format pins for soc/run_io (DESIGN.md §14).
 *
 * Job hashes, journal rows, cache entries and failure reports all
 * embed the serialized RunOptions/RunResult, so the format must not
 * drift: the literals below are the exact bytes the format produced
 * before it was generated from one field list per struct. A change
 * here invalidates every persisted sweep result and needs a
 * kLibraryRevision bump. The reader tests check that a malformed
 * member is rejected by name instead of loading as 0 or "".
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "sim/check/forensics.hh"
#include "soc/run_io.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{
namespace
{

/** Every RunOptions field set to a non-default value. */
RunOptions
fullOptions()
{
    RunOptions o;
    o.bigGhz = 2.25;
    o.littleGhz = 0.8125;
    o.limitNs = 777.5;
    o.verifyResult = false;
    o.watchdog = false;
    o.watchdogIntervalNs = 5000.5;
    o.wallDeadlineSec = 9.25;

    VEngineParams e;
    e.name = "ablate";
    e.lanePrefix = "lane";
    e.numLanes = 8;
    e.chimes = 3;
    e.packed = false;
    e.cmdQueueDepth = 33;
    e.uopQueueDepth = 65;
    e.dataQueueDepth = 9;
    e.laneUopQueueDepth = 5;
    e.vmiuQueueDepth = 17;
    e.loadQueueLines = 24;
    e.storeQueueLines = 12;
    e.storeCamEntries = 6;
    e.coalesceWindow = 2;
    e.switchPenalty = 250;
    e.fu = {2, 4, 13, 5, 6, 14, 3, 2};
    e.memPath = VEngineParams::MemPath::directL2;
    e.controlsL1Mode = false;
    e.headDispatch = false;
    o.engineOverride = e;

    o.faults.enabled = true;
    o.faults.seed = 0x123456789abcdef0ull;
    o.faults.memDelayProb = 0.125;
    o.faults.memDelayCycles = 51;
    o.faults.cacheDelayProb = 0.0625;
    o.faults.cacheDelayCycles = 9;
    o.faults.vcuStallProb = 0.03125;
    o.faults.vcuStallCycles = 21;
    o.faults.vmuDropProb = 0.25;
    o.faults.vmuMaxRetries = 7;
    o.faults.vmuRetryDelay = 65;
    o.faults.script = {{12345, FaultKind::vmuDrop, 0},
                       {99999, FaultKind::vcuStall, 40},
                       {7, FaultKind::memDelay, 3},
                       {8, FaultKind::cacheDelay, 4}};

    o.check.lockstep = true;
    o.check.invariants = true;
    o.check.retireContext = 16;
    o.check.invariantPeriod = 32;
    o.check.forensicsPath = "/tmp/report.json";

    o.trace.path = "/tmp/trace.json";
    o.trace.samplePath = "/tmp/sample.csv";
    o.trace.startNs = 10.5;
    o.trace.stopNs = 2000.25;
    o.trace.categories = 5;
    o.trace.sampleIntervalNs = 250.5;

    o.sampling.ffInsts = 20000;
    o.sampling.warmupInsts = 1000;
    o.sampling.detailInsts = 4000;
    o.sampling.periods = 8;

    o.checkpoint.savePath = "/tmp/ck.bvl";
    o.checkpoint.restorePath = "/tmp/ck2.bvl";
    o.checkpoint.ffInsts = 12345;
    o.checkpoint.farm = true;
    o.checkpoint.farmDir = "/tmp/farm";
    o.checkpoint.strict = true;
    return o;
}

/** A failed run with every optional member present. */
RunResult
handBuiltResult()
{
    RunResult r;
    r.workload = "vvadd";
    r.design = "1b-4VL";
    r.status = RunStatus::check_failed;
    r.message = "lockstep: \"big\" diverged\n";
    r.log = "warn: retry\n";
    r.finished = true;
    r.verified = false;
    r.ns = 1234.5;
    r.ifetchReqs = 10;
    r.dataReqs = 20;
    r.bigFetched = 30;
    r.stats = {{"big.retired", 99}, {"z.max", 18446744073709551615ull}};
    r.heartbeats = {{"big", 41, 1000, "rob=3"}, {"vcu", 0, 0, ""}};
    DivergenceRecord d;
    d.stream = "big";
    d.seq = 17;
    d.tick = 4242;
    d.instr = "add x1, x2, x3";
    d.field = "rdValue";
    d.timedValue = 5;
    d.refValue = 6;
    d.queueContext = "vmu: empty";
    d.lastRetires = {"pc=0x100", "pc=0x104"};
    r.divergence = d;
    r.invariantViolations = "rob.count > size";
    return r;
}

// --- golden pins ---------------------------------------------------------

TEST(RunIoFormatTest, DefaultOptionsBytesArePinned)
{
    EXPECT_EQ(
        runOptionsToJson(RunOptions{}).dump(0),
        "{\"bigGhz\":1,\"littleGhz\":1,\"limitNs\":1000000000,\"verifyResult"
        "\":true,\"watchdog\":true,\"watchdogIntervalNs\":100000,\"wallDeadli"
        "neSec\":0,\"faults\":{\"enabled\":false,\"seed\":1,\"memDelayProb\":"
        "0,\"memDelayCycles\":50,\"cacheDelayProb\":0,\"cacheDelayCycles\":8,"
        "\"vcuStallProb\":0,\"vcuStallCycles\":20,\"vmuDropProb\":0,\"vmuMaxR"
        "etries\":3,\"vmuRetryDelay\":64,\"script\":[]},\"check\":{\"lockstep"
        "\":false,\"invariants\":false,\"retireContext\":8,\"invariantPeriod"
        "\":64,\"forensicsPath\":\"\"},\"trace\":{\"path\":\"\",\"samplePath"
        "\":\"\",\"startNs\":0,\"stopNs\":-1,\"categories\":255,\"sampleInter"
        "valNs\":1000},\"sampling\":{\"ffInsts\":0,\"warmupInsts\":0,\"detail"
        "Insts\":0,\"periods\":0},\"checkpoint\":{\"savePath\":\"\",\"restore"
        "Path\":\"\",\"ffInsts\":0,\"farm\":false,\"farmDir\":\"\",\"strict\""
        ":false}}");
}

TEST(RunIoFormatTest, FullOptionsBytesArePinned)
{
    EXPECT_EQ(runOptionsToJson(fullOptions()).dump(0),
              "{\"bigGhz\":2.25,\"littleGhz\":0.8125,\"limitNs\":777.5,\"veri"
              "fyResult\":false,\"watchdog\":false,\"watchdogIntervalNs\":500"
              "0.5,\"wallDeadlineSec\":9.25,\"engineOverride\":{\"name\":\"ab"
              "late\",\"lanePrefix\":\"lane\",\"numLanes\":8,\"chimes\":3,\"p"
              "acked\":false,\"cmdQueueDepth\":33,\"uopQueueDepth\":65,\"data"
              "QueueDepth\":9,\"laneUopQueueDepth\":5,\"vmiuQueueDepth\":17,"
              "\"loadQueueLines\":24,\"storeQueueLines\":12,\"storeCamEntries"
              "\":6,\"coalesceWindow\":2,\"switchPenalty\":250,\"fu\":{\"intA"
              "lu\":2,\"intMul\":4,\"intDiv\":13,\"fpAdd\":5,\"fpMul\":6,\"fp"
              "Div\":14,\"mem\":3,\"branch\":2},\"memPath\":\"directL2\",\"co"
              "ntrolsL1Mode\":false,\"headDispatch\":false},\"faults\":{\"ena"
              "bled\":true,\"seed\":1311768467463790320,\"memDelayProb\":0.12"
              "5,\"memDelayCycles\":51,\"cacheDelayProb\":0.0625,\"cacheDelay"
              "Cycles\":9,\"vcuStallProb\":0.03125,\"vcuStallCycles\":21,\"vm"
              "uDropProb\":0.25,\"vmuMaxRetries\":7,\"vmuRetryDelay\":65,\"sc"
              "ript\":[{\"atTick\":12345,\"kind\":\"vmuDrop\",\"cycles\":0},{"
              "\"atTick\":99999,\"kind\":\"vcuStall\",\"cycles\":40},{\"atTic"
              "k\":7,\"kind\":\"memDelay\",\"cycles\":3},{\"atTick\":8,\"kind"
              "\":\"cacheDelay\",\"cycles\":4}]},\"check\":{\"lockstep\":true"
              ",\"invariants\":true,\"retireContext\":16,\"invariantPeriod\":"
              "32,\"forensicsPath\":\"/tmp/report.json\"},\"trace\":{\"path\""
              ":\"/tmp/trace.json\",\"samplePath\":\"/tmp/sample.csv\",\"star"
              "tNs\":10.5,\"stopNs\":2000.25,\"categories\":5,\"sampleInterva"
              "lNs\":250.5},\"sampling\":{\"ffInsts\":20000,\"warmupInsts\":1"
              "000,\"detailInsts\":4000,\"periods\":8},\"checkpoint\":{\"save"
              "Path\":\"/tmp/ck.bvl\",\"restorePath\":\"/tmp/ck2.bvl\",\"ffIn"
              "sts\":12345,\"farm\":true,\"farmDir\":\"/tmp/farm\",\"strict\""
              ":true}}");
}

TEST(RunIoFormatTest, ResultBytesArePinned)
{
    EXPECT_EQ(runResultToJson(handBuiltResult()).dump(0),
              "{\"workload\":\"vvadd\",\"design\":\"1b-4VL\",\"status\":\"che"
              "ck_failed\",\"message\":\"lockstep: \\\"big\\\" diverged\\n\","
              "\"log\":\"warn: retry\\n\",\"finished\":true,\"verified\":fals"
              "e,\"ns\":1234.5,\"ifetchReqs\":10,\"dataReqs\":20,\"bigFetched"
              "\":30,\"stats\":{\"big.retired\":99,\"z.max\":1844674407370955"
              "1615},\"heartbeats\":[{\"name\":\"big\",\"progress\":41,\"last"
              "Advance\":1000,\"detail\":\"rob=3\"},{\"name\":\"vcu\",\"progr"
              "ess\":0,\"lastAdvance\":0,\"detail\":\"\"}],\"divergence\":{\""
              "stream\":\"big\",\"seq\":17,\"tick\":4242,\"instr\":\"add x1, "
              "x2, x3\",\"field\":\"rdValue\",\"timedValue\":5,\"refValue\":6"
              ",\"chime\":-1,\"queueContext\":\"vmu: empty\",\"lastRetires\":"
              "[\"pc=0x100\",\"pc=0x104\"]},\"invariantViolations\":\"rob.cou"
              "nt > size\"}");
}

TEST(RunIoFormatTest, JobHashesArePinned)
{
    EXPECT_EQ(jobHashHex({Design::d1b4VL, "vvadd", Scale::tiny, {}}),
              "202327b4ff70b444e6c31ab453ced1551a8587c6eb20e73eebd471471cbbae"
              "6d");
    EXPECT_EQ(jobHashHex({Design::d1bDV, "saxpy", Scale::small,
                          fullOptions()}),
              "bd85948d227a876538842119fce4717e3bc619b63b19699973ad6ef786cc3e"
              "2a");
}

// --- the reader rejects malformed members by name -------------------------

/**
 * Write @p text as a bare recipe and load it through loadReplayJob. The
 * file is named after the running test and the process, so tests run
 * as concurrent processes never share it, and it is removed even when
 * loading throws.
 */
SweepJob
loadRecipe(const std::string &text)
{
    std::string path =
        ::testing::TempDir() + "bvl_run_io_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + ".json";
    std::ofstream(path) << text;
    struct Remove
    {
        const std::string &path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};
    return loadReplayJob(path);
}

/** The SimFatalError message loading @p text raises; "" if none. */
std::string
loadError(const std::string &text)
{
    try {
        loadRecipe(text);
    } catch (const SimFatalError &e) {
        return e.what();
    }
    return "";
}

/** A recipe for vvadd on 1b-4VL at tiny with @p options. */
std::string
recipe(const std::string &options)
{
    return "{\"design\":\"1b-4VL\",\"workload\":\"vvadd\","
           "\"scale\":\"tiny\",\"options\":" +
           options + "}";
}

TEST(RunIoReaderTest, AbsentMembersDefault)
{
    SweepJob job = loadRecipe(recipe("{\"faults\":{\"seed\":9}}"));
    EXPECT_EQ(job.design, Design::d1b4VL);
    EXPECT_EQ(job.workload, "vvadd");
    EXPECT_EQ(job.scale, Scale::tiny);
    EXPECT_EQ(job.opts.faults.seed, 9u);
    RunOptions expect;
    expect.faults.seed = 9;
    EXPECT_EQ(runOptionsToJson(job.opts).dump(0),
              runOptionsToJson(expect).dump(0));
}

TEST(RunIoReaderTest, MalformedMembersAreRejectedByName)
{
    const std::pair<std::string, std::string> cases[] = {
        // wrong JSON kind
        {recipe("{\"engineOverride\":{\"numLanes\":\"4\"}}"),
         "'options.engineOverride.numLanes'"},
        {recipe("{\"verifyResult\":1}"), "'options.verifyResult'"},
        {recipe("{\"check\":[]}"), "'options.check'"},
        {recipe("{\"trace\":{\"path\":7}}"), "'options.trace.path'"},
        {recipe("{\"faults\":{\"script\":{}}}"),
         "'options.faults.script'"},
        // negative, fractional or oversized number for an integer field
        {recipe("{\"faults\":{\"vmuMaxRetries\":-1}}"),
         "'options.faults.vmuMaxRetries'"},
        {recipe("{\"sampling\":{\"periods\":1.5}}"),
         "'options.sampling.periods'"},
        {recipe("{\"check\":{\"retireContext\":4294967296}}"),
         "'options.check.retireContext'"},
        // unknown enum names
        {recipe("{\"engineOverride\":{\"memPath\":\"sideways\"}}"),
         "'options.engineOverride.memPath'"},
        {recipe("{\"faults\":{\"script\":[{\"kind\":\"vmuDrop\"},"
                "{\"kind\":\"bogus\"}]}}"),
         "'options.faults.script[1].kind'"},
        {"{\"design\":\"2b\",\"workload\":\"vvadd\","
         "\"scale\":\"tiny\"}",
         "'design'"},
        {"{\"design\":\"1b\",\"workload\":\"vvadd\","
         "\"scale\":\"huge\"}",
         "'scale'"},
        // required members stay required
        {"{\"design\":\"1b\",\"scale\":\"tiny\"}", "'workload'"},
        {recipe("{\"faults\":{\"script\":[{\"atTick\":5}]}}"),
         "'options.faults.script[0].kind'"},
    };
    for (const auto &[text, member] : cases) {
        std::string msg = loadError(text);
        EXPECT_NE(msg.find(member), std::string::npos)
            << text << " -> '" << msg << "'";
    }
}

TEST(RunIoReaderTest, ResultStatusIsRequired)
{
    Json doc = runResultToJson(handBuiltResult());
    doc.set("status", Json());
    EXPECT_THROW(runResultFromJson(doc), SimFatalError);
    doc.set("status", "exploded");
    EXPECT_THROW(runResultFromJson(doc), SimFatalError);
    doc.set("status", "ok");
    EXPECT_EQ(runResultFromJson(doc).status, RunStatus::ok);
}

} // namespace
} // namespace bvl
