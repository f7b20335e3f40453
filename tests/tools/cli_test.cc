#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "xml/parser.h"

namespace xupdate::tools {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_cli_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Runs the CLI, expecting success; returns captured output.
  std::string Run(const std::vector<std::string>& args) {
    std::ostringstream out;
    Status status = RunCli(args, out);
    EXPECT_TRUE(status.ok()) << status << "\n" << out.str();
    return out.str();
  }

  void WriteDoc(const std::string& name, const std::string& xml) {
    std::ofstream f(Path(name));
    f << xml;
  }

  fs::path dir_;
};

TEST_F(CliTest, UnknownCommandFails) {
  std::ostringstream out;
  EXPECT_FALSE(RunCli({"frobnicate"}, out).ok());
  EXPECT_FALSE(RunCli({}, out).ok());
}

TEST_F(CliTest, MissingFlagsFail) {
  std::ostringstream out;
  EXPECT_FALSE(RunCli({"generate"}, out).ok());
  EXPECT_FALSE(RunCli({"apply", "--doc", "x"}, out).ok());
  EXPECT_FALSE(RunCli({"produce", "--doc", "x", "--update"}, out).ok());
}

TEST_F(CliTest, GenerateStatsAndQuery) {
  Run({"generate", "--bytes", "20000", "--out", Path("doc.xml")});
  std::string stats = Run({"stats", "--doc", Path("doc.xml")});
  EXPECT_NE(stats.find("elements:"), std::string::npos);
  std::string query =
      Run({"query", "--doc", Path("doc.xml"), "--path", "//item/name"});
  EXPECT_NE(query.find("nodes"), std::string::npos);
}

TEST_F(CliTest, ProduceApplyRoundTrip) {
  WriteDoc("doc.xml", "<r><a>old</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"new\"", "--out",
       Path("pul.xml")});
  Run({"apply", "--doc", Path("doc.xml"), "--pul", Path("pul.xml"),
       "--out", Path("out.xml")});
  std::ifstream f(Path("out.xml"));
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_NE(content.str().find("new"), std::string::npos);

  // The in-memory engine agrees.
  Run({"apply", "--doc", Path("doc.xml"), "--pul", Path("pul.xml"),
       "--engine", "inmemory", "--out", Path("out2.xml")});
  std::ifstream f2(Path("out2.xml"));
  std::stringstream content2;
  content2 << f2.rdbuf();
  EXPECT_EQ(content.str(), content2.str());
}

TEST_F(CliTest, ReduceReportsRuleApplications) {
  WriteDoc("doc.xml", "<r><a/></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <x/> as last into /r/a, "
       "insert nodes <y/> as last into /r/a",
       "--out", Path("pul.xml")});
  std::string out = Run({"reduce", "--pul", Path("pul.xml"), "--out",
                         Path("reduced.xml")});
  EXPECT_NE(out.find("reduced 2 -> 1"), std::string::npos);
}

TEST_F(CliTest, AggregatePipeline) {
  WriteDoc("doc.xml", "<r><a>one</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <b>two</b> as last into /r", "--id-base", "100",
       "--out", Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"z\"", "--id-base", "200", "--out",
       Path("p2.xml")});
  std::string out = Run({"aggregate", "--out", Path("agg.xml"),
                         Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(out.find("aggregated"), std::string::npos);
  Run({"apply", "--doc", Path("doc.xml"), "--pul", Path("agg.xml"),
       "--out", Path("out.xml")});
}

TEST_F(CliTest, IntegrateReportsConflicts) {
  WriteDoc("doc.xml", "<r><a>one</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"x\"", "--id-base", "100", "--out",
       Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"y\"", "--id-base", "200", "--out",
       Path("p2.xml")});
  std::string out =
      Run({"integrate", Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(out.find("1 conflicts"), std::string::npos);
  EXPECT_NE(out.find("repeated-modification"), std::string::npos);
}

TEST_F(CliTest, ReconcileWithPolicies) {
  WriteDoc("doc.xml", "<r><a>one</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"mine\"", "--id-base",
       "100", "--policies", "inserted", "--out", Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"theirs\"", "--id-base",
       "200", "--out", Path("p2.xml")});
  std::string out = Run({"reconcile", "--out", Path("merged.xml"),
                         Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(out.find("reconciled 1 conflicts"), std::string::npos);
  Run({"apply", "--doc", Path("doc.xml"), "--pul", Path("merged.xml"),
       "--out", Path("out.xml")});
  std::ifstream f(Path("out.xml"));
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_NE(content.str().find("mine"), std::string::npos);
}

TEST_F(CliTest, ShowRendersOps) {
  WriteDoc("doc.xml", "<r><a>x</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "delete nodes /r/a", "--out", Path("pul.xml")});
  std::string out = Run({"show", "--pul", Path("pul.xml")});
  EXPECT_NE(out.find("del(2)"), std::string::npos);
}

TEST_F(CliTest, DiffDerivesApplicableDelta) {
  WriteDoc("from.xml", "<r><a>x</a><b/></r>");
  // Edit: produce + apply, then diff original vs updated.
  Run({"produce", "--doc", Path("from.xml"), "--update",
       "replace value of node /r/a/text() with \"y\", delete nodes /r/b",
       "--out", Path("edit.xml")});
  Run({"apply", "--doc", Path("from.xml"), "--pul", Path("edit.xml"),
       "--out", Path("to.xml")});
  std::string out = Run({"diff", "--from", Path("from.xml"), "--to",
                         Path("to.xml"), "--out", Path("delta.xml")});
  EXPECT_NE(out.find("2 operations"), std::string::npos);
  Run({"apply", "--doc", Path("from.xml"), "--pul", Path("delta.xml"),
       "--out", Path("patched.xml")});
  std::ifstream a(Path("to.xml")), b(Path("patched.xml"));
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST_F(CliTest, EquivalentCommand) {
  WriteDoc("doc.xml", "<r><a>x</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "delete nodes /r/a", "--id-base", "100", "--out", Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace node /r/a with \"\", delete nodes /r/a/text()",
       "--id-base", "200", "--out", Path("p2.xml")});
  // del(a) vs repN(a, empty-text)+del(text): not equivalent (the second
  // leaves an empty text node).
  std::string out = Run(
      {"equivalent", "--doc", Path("doc.xml"), Path("p1.xml"),
       Path("p2.xml")});
  EXPECT_FALSE(out.empty());
}

TEST_F(CliTest, SidecarRoundTrip) {
  WriteDoc("doc.xml", "<r a=\"1\"><x>t</x></r>");
  std::string save = Run({"sidecar-save", "--doc", Path("doc.xml"),
                          "--out-doc", Path("plain.xml"), "--out-sidecar",
                          Path("doc.sidecar")});
  EXPECT_NE(save.find("pristine"), std::string::npos);
  // The plain form carries no annotations.
  std::ifstream plain_file(Path("plain.xml"));
  std::stringstream plain;
  plain << plain_file.rdbuf();
  EXPECT_EQ(plain.str().find("xu:ids"), std::string::npos);
  // Loading re-annotates with the original ids.
  Run({"sidecar-load", "--doc", Path("plain.xml"), "--sidecar",
       Path("doc.sidecar"), "--out", Path("back.xml")});
  std::ifstream back_file(Path("back.xml"));
  std::stringstream back;
  back << back_file.rdbuf();
  auto original = xml::ParseDocument("<r a=\"1\"><x>t</x></r>");
  auto restored = xml::ParseDocument(back.str());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(xml::Document::SubtreeEquals(
      *original, original->root(), *restored, restored->root(),
      /*compare_ids=*/true));
}

TEST_F(CliTest, InvertUndoes) {
  WriteDoc("doc.xml", "<r><a>one</a><b/></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "delete nodes /r/b", "--out", Path("pul.xml")});
  Run({"apply", "--doc", Path("doc.xml"), "--pul", Path("pul.xml"),
       "--out", Path("after.xml")});
  Run({"invert", "--doc", Path("doc.xml"), "--pul", Path("pul.xml"),
       "--out", Path("undo.xml")});
  Run({"apply", "--doc", Path("after.xml"), "--pul", Path("undo.xml"),
       "--out", Path("restored.xml")});
  std::ifstream original(Path("doc.xml"));
  std::stringstream original_content;
  original_content << original.rdbuf();
  std::ifstream restored(Path("restored.xml"));
  std::stringstream restored_content;
  restored_content << restored.rdbuf();
  auto a = xml::ParseDocument(original_content.str());
  auto b = xml::ParseDocument(restored_content.str());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(xml::Document::SubtreeEquals(*a, a->root(), *b, b->root(),
                                           /*compare_ids=*/true));
}

TEST_F(CliTest, AnalyzeReportsVerdictAndDiagnostics) {
  WriteDoc("doc.xml", "<r><a>one</a><b>two</b></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"x\"", "--id-base", "100", "--out",
       Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"y\"", "--id-base", "200", "--out",
       Path("p2.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "delete nodes /r/b", "--id-base", "300", "--out", Path("p3.xml")});

  // p1 vs p2 rename the same node: a must-conflict; p1 vs p3 touch
  // disjoint subtrees: independent.
  std::string out =
      Run({"analyze", Path("p1.xml"), Path("p2.xml"), Path("p3.xml")});
  EXPECT_NE(out.find("\"verdict\":\"must-conflict\""), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"repeated-modification\""),
            std::string::npos);
  EXPECT_NE(out.find("\"verdict\":\"independent\""), std::string::npos);
  EXPECT_NE(out.find("\"noRuleCanFire\":true"), std::string::npos);

  // Dead op inside a deleted subtree surfaces as XU002.
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "delete nodes /r/a, replace value of node /r/a/text() with \"z\"",
       "--id-base", "400", "--out", Path("p4.xml")});
  std::string lint = Run({"analyze", Path("p4.xml")});
  EXPECT_NE(lint.find("\"code\":\"XU002\""), std::string::npos);

  // --out writes the report to a file instead.
  std::string to_file = Run({"analyze", "--out", Path("report.json"),
                             Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(to_file.find("wrote"), std::string::npos);
  std::ifstream report(Path("report.json"));
  std::stringstream content;
  content << report.rdbuf();
  EXPECT_NE(content.str().find("\"independence\""), std::string::npos);
  std::ostringstream sink;
  EXPECT_FALSE(RunCli({"analyze"}, sink).ok());
}

TEST_F(CliTest, AnalyzeSchemaGoldenReport) {
  // Pins every byte of the schema-tier report: the tier0 flag per pair,
  // the synthesized independent verdict (reason "disjoint", ops -1/-1 —
  // identical to the exact analyzer's), and the deterministic precision
  // summary. An attribute edit against a text edit under a 3-type DTD
  // is provably disjoint at the type level.
  WriteDoc("s.dtd",
           "<!ELEMENT r (x, y)>\n"
           "<!ATTLIST r a CDATA #IMPLIED>\n"
           "<!ELEMENT x (#PCDATA)>\n"
           "<!ELEMENT y EMPTY>\n");
  WriteDoc("doc.xml", "<r a=\"1\"><x>hello</x><y/></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/@a with \"2\"", "--id-base", "100",
       "--out", Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/x/text() with \"bye\"", "--id-base",
       "200", "--out", Path("p2.xml")});

  std::string out = Run({"analyze", Path("p1.xml"), Path("p2.xml"),
                         "--schema", Path("s.dtd")});
  std::string expected =
      "{\"puls\":[{\"path\":\"" + Path("p1.xml") +
      "\",\"ops\":1,\"lint\":[],\"prediction\":{\"inputOps\":1,"
      "\"survivingUpperBound\":1,\"guaranteedKills\":0,"
      "\"noRuleCanFire\":true,\"hasInsInto\":false}},{\"path\":\"" +
      Path("p2.xml") +
      "\",\"ops\":1,\"lint\":[],\"prediction\":{\"inputOps\":1,"
      "\"survivingUpperBound\":1,\"guaranteedKills\":0,"
      "\"noRuleCanFire\":true,\"hasInsInto\":false}}],"
      "\"independence\":[{\"a\":0,\"b\":1,\"report\":{"
      "\"verdict\":\"independent\",\"reason\":\"disjoint\","
      "\"opA\":-1,\"opB\":-1},\"tier0\":true}],"
      "\"schema\":{\"types\":3,\"pairs\":1,\"tier0\":1,"
      "\"precision\":\"1.000\"}}\n";
  EXPECT_EQ(out, expected);

  // Without --schema the report must stay byte-identical to the
  // pre-schema surface: no tier0 fields, no schema object.
  std::string plain = Run({"analyze", Path("p1.xml"), Path("p2.xml")});
  EXPECT_EQ(plain.find("tier0"), std::string::npos);
  EXPECT_EQ(plain.find("\"schema\""), std::string::npos);

  // builtin:xmark resolves without a file; a bad path is a clean error.
  std::string builtin = Run({"analyze", Path("p1.xml"), Path("p2.xml"),
                             "--schema", "builtin:xmark"});
  EXPECT_NE(builtin.find("\"schema\":{\"types\":41"), std::string::npos);
  std::ostringstream sink;
  EXPECT_FALSE(RunCli({"analyze", Path("p1.xml"), "--schema",
                       Path("missing.dtd")},
                      sink)
                   .ok());
}

TEST_F(CliTest, EqualsFlagSyntax) {
  WriteDoc("doc.xml", "<r><a/></r>");
  Run({"produce", "--doc=" + Path("doc.xml"),
       "--update=insert nodes <x/> as last into /r/a",
       "--out=" + Path("pul.xml")});
  std::string out =
      Run({"reduce", "--pul=" + Path("pul.xml"), "--out=" + Path("r.xml")});
  EXPECT_NE(out.find("reduced 1 -> 1"), std::string::npos);
}

TEST_F(CliTest, TraceAndExplainRoundTrip) {
  WriteDoc("doc.xml", "<r><a/></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <x/> as last into /r/a, "
       "insert nodes <y/> as last into /r/a, "
       "delete nodes /r/a",
       "--out", Path("pul.xml")});
  std::string out =
      Run({"reduce", "--pul", Path("pul.xml"), "--out", Path("r.xml"),
           "--trace=" + Path("trace.jsonl")});
  EXPECT_NE(out.find("wrote trace"), std::string::npos);

  // Every input operation gets a provenance chain.
  std::string all = Run({"explain", Path("trace.jsonl")});
  EXPECT_NE(all.find("#0"), std::string::npos);
  EXPECT_NE(all.find("#1"), std::string::npos);
  EXPECT_NE(all.find("#2"), std::string::npos);
  EXPECT_NE(all.find("survived"), std::string::npos);
  EXPECT_NE(all.find("eliminated"), std::string::npos);

  // --op narrows to one chain; the delete overrides the insertions.
  std::string one = Run({"explain", Path("trace.jsonl"), "--op=#0"});
  EXPECT_EQ(one.rfind("#0", 0), 0u);
  EXPECT_NE(one.find("eliminated"), std::string::npos);
  std::string unknown =
      Run({"explain", Path("trace.jsonl"), "--op", "#42"});
  EXPECT_NE(unknown.find("unknown op id"), std::string::npos);

  std::ostringstream sink;
  EXPECT_FALSE(RunCli({"explain"}, sink).ok());
  EXPECT_FALSE(RunCli({"explain", Path("missing.jsonl")}, sink).ok());
}

TEST_F(CliTest, ChromeTraceWritesTimeline) {
  WriteDoc("doc.xml", "<r><a/></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <x/> as last into /r/a", "--out", Path("pul.xml")});
  Run({"reduce", "--pul", Path("pul.xml"), "--out", Path("r.xml"),
       "--chrome-trace", Path("trace.json")});
  std::ifstream f(Path("trace.json"));
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_EQ(content.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(content.str().find("thread_name"), std::string::npos);
}

TEST_F(CliTest, IntegrateAndReconcileTraceToStdout) {
  WriteDoc("doc.xml", "<r><a>one</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"x\"", "--id-base", "100", "--out",
       Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"y\"", "--id-base", "200", "--out",
       Path("p2.xml")});
  std::string integrate = Run(
      {"integrate", "--trace=-", Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(integrate.find("\"kind\":\"conflict-detected\""),
            std::string::npos);
  EXPECT_NE(integrate.find("repeated-modification"), std::string::npos);
  std::string reconcile =
      Run({"reconcile", "--out", Path("m.xml"), "--trace=-",
           Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(reconcile.find("\"kind\":\"policy-applied\""),
            std::string::npos);
}

TEST_F(CliTest, AggregateAndAnalyzeEmitTraces) {
  WriteDoc("doc.xml", "<r><a>one</a></r>");
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <b>two</b> as last into /r", "--id-base", "100",
       "--out", Path("p1.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "rename node /r/a as \"z\"", "--id-base", "200", "--out",
       Path("p2.xml")});
  std::string aggregate =
      Run({"aggregate", "--out", Path("agg.xml"), "--trace=-",
           Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(aggregate.find("\"scope\":\"aggregate\""), std::string::npos);
  std::string analyze = Run(
      {"analyze", "--trace=-", Path("p1.xml"), Path("p2.xml")});
  EXPECT_NE(analyze.find("\"name\":\"independence\""), std::string::npos);
  EXPECT_NE(analyze.find("\"name\":\"prediction\""), std::string::npos);
}

TEST_F(CliTest, StoreLifecycle) {
  WriteDoc("doc.xml", "<r><a>old</a><b>keep</b></r>");
  Run({"store", "init", "--dir", Path("store"), "--doc", Path("doc.xml"),
       "--snapshot-every", "2"});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"v1\"", "--id-base", "100",
       "--out", Path("p1.xml")});
  std::string commit =
      Run({"store", "commit", "--dir", Path("store"), "--pul",
           Path("p1.xml"), "--snapshot-every", "2"});
  EXPECT_NE(commit.find("committed version 1"), std::string::npos);

  // Checkout both versions; version 0 must match the initial document.
  Run({"store", "checkout", "--dir", Path("store"), "--version", "0",
       "--out", Path("v0.xml")});
  Run({"store", "checkout", "--dir", Path("store"), "--version", "1",
       "--out", Path("v1.xml")});
  std::ifstream v0(Path("v0.xml"));
  std::stringstream v0_content;
  v0_content << v0.rdbuf();
  EXPECT_NE(v0_content.str().find("old"), std::string::npos);
  std::ifstream v1(Path("v1.xml"));
  std::stringstream v1_content;
  v1_content << v1.rdbuf();
  EXPECT_NE(v1_content.str().find("v1"), std::string::npos);

  std::string log = Run({"store", "log", "--dir", Path("store")});
  EXPECT_NE(log.find("head: 1"), std::string::npos);
  EXPECT_NE(log.find("pul       v1"), std::string::npos);

  std::string verify = Run({"store", "verify", "--dir", Path("store")});
  EXPECT_NE(verify.find("verify ok"), std::string::npos);

  std::string rollback = Run(
      {"store", "rollback", "--dir", Path("store"), "--to", "0"});
  EXPECT_NE(rollback.find("rolled back to version 0"), std::string::npos);
  Run({"store", "checkout", "--dir", Path("store"), "--version", "2",
       "--out", Path("v2.xml")});
  std::ifstream v2(Path("v2.xml"));
  std::stringstream v2_content;
  v2_content << v2.rdbuf();
  EXPECT_NE(v2_content.str().find("old"), std::string::npos);
}

TEST_F(CliTest, StoreBranchMergeRebaseAndSim) {
  WriteDoc("doc.xml", "<r><a>one</a><b>two</b></r>");
  Run({"store", "init", "--dir", Path("st"), "--doc", Path("doc.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"main1\"", "--out",
       Path("p1.xml")});
  Run({"store", "commit", "--dir", Path("st"), "--pul", Path("p1.xml")});
  std::string created = Run({"store", "branch", "--dir", Path("st"),
                             "--name", "w1", "--policies",
                             "preserve-inserted-data"});
  EXPECT_NE(created.find("created branch w1 forking main at version 1"),
            std::string::npos);
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <c>three</c> as last into /r", "--id-base", "100",
       "--out", Path("p2.xml")});
  std::string commit = Run({"store", "commit", "--dir", Path("st"),
                            "--branch", "w1", "--pul", Path("p2.xml")});
  EXPECT_NE(commit.find("committed version 2 (1 operations) on branch w1"),
            std::string::npos);
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/b/text() with \"main2\"", "--id-base",
       "200", "--out", Path("p3.xml")});
  Run({"store", "commit", "--dir", Path("st"), "--pul", Path("p3.xml")});
  std::string merge = Run({"store", "merge", "--dir", Path("st"), "--a",
                           "main", "--b", "w1"});
  EXPECT_NE(merge.find("main -> v3, w1 -> v3"), std::string::npos);

  // Both heads materialize the merged state: each side's edit plus the
  // other's.
  Run({"store", "checkout", "--dir", Path("st"), "--branch", "w1",
       "--version", "3", "--out", Path("w1.xml")});
  Run({"store", "checkout", "--dir", Path("st"), "--version", "3",
       "--out", Path("main.xml")});
  std::ifstream w1_file(Path("w1.xml")), main_file(Path("main.xml"));
  std::stringstream w1_content, main_content;
  w1_content << w1_file.rdbuf();
  main_content << main_file.rdbuf();
  EXPECT_EQ(w1_content.str(), main_content.str());
  EXPECT_NE(w1_content.str().find("main2"), std::string::npos);
  EXPECT_NE(w1_content.str().find("three"), std::string::npos);

  // Golden: the branch log output — per-version op counts, frame
  // offsets and the branch-head footer — is pinned byte-for-byte.
  std::string log = Run({"store", "log", "--dir", Path("st"), "--branch",
                         "w1"});
  EXPECT_EQ(log,
            "branch w1: head 3 (fork 1 of main)\n"
            "  meta       (24 bytes at offset 8)\n"
            "  pul       v2  1 ops  (122 bytes at offset 57)\n"
            "  merge     v2 -> v3  3 ops  (270 bytes at offset 204)\n"
            "branches:\n"
            "  w1: head 3 (fork 1 of main)\n");

  std::string verify = Run({"store", "verify", "--dir", Path("st")});
  EXPECT_NE(verify.find("1 merges checked"), std::string::npos);
  EXPECT_NE(verify.find("branch w1:"), std::string::npos);

  // Rebase a second branch over the mainline's merge commit.
  Run({"store", "branch", "--dir", Path("st"), "--name", "w2", "--at",
       "1"});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "insert nodes <d>four</d> as last into /r", "--id-base", "300",
       "--out", Path("p4.xml")});
  Run({"store", "commit", "--dir", Path("st"), "--branch", "w2", "--pul",
       Path("p4.xml")});
  std::string rebase = Run({"store", "rebase", "--dir", Path("st"),
                            "--name", "w2", "--onto", "2"});
  EXPECT_NE(rebase.find("rebased w2 onto v2: 1 commits replayed"),
            std::string::npos);
  std::string listing = Run({"store", "branch", "--dir", Path("st")});
  EXPECT_NE(listing.find("branches: 2"), std::string::npos);
  EXPECT_NE(listing.find("w2: head 3 (fork 2 of main)"),
            std::string::npos);

  // The simulator through the CLI: a tiny sweep must fully converge.
  std::string sim = Run({"sim", "--writers", "2", "--schedules", "2",
                         "--seed", "5", "--scratch", Path("sim")});
  EXPECT_NE(sim.find("sim: 2/2 schedules converged"), std::string::npos);
}

TEST_F(CliTest, StoreRollbackAndMetrics) {
  WriteDoc("doc.xml", "<r><a>x</a></r>");
  Run({"store", "init", "--dir", Path("store"), "--doc", Path("doc.xml"),
       "--snapshot-every", "2"});
  for (int round = 1; round <= 4; ++round) {
    Run({"produce", "--doc", Path("doc.xml"), "--update",
         "replace value of node /r/a/text() with \"round" +
             std::to_string(round) + "\"",
         "--id-base", std::to_string(100 * round), "--out",
         Path("p.xml")});
    Run({"store", "commit", "--dir", Path("store"), "--pul", Path("p.xml"),
         "--snapshot-every", "2"});
  }
  std::string rollback = Run({"store", "rollback", "--dir", Path("store"),
                              "--to", "1", "--metrics", "-"});
  EXPECT_NE(rollback.find("rolled back to version 1 as new version 5"),
            std::string::npos)
      << rollback;
  EXPECT_NE(rollback.find("store.rollback.count"), std::string::npos)
      << rollback;
  std::string verify = Run({"store", "verify", "--dir", Path("store")});
  EXPECT_NE(verify.find("verify ok"), std::string::npos);
}

TEST_F(CliTest, StoreFaultInjectionEnvShim) {
  WriteDoc("doc.xml", "<r><a>x</a></r>");
  Run({"store", "init", "--dir", Path("store"), "--doc", Path("doc.xml")});
  Run({"produce", "--doc", Path("doc.xml"), "--update",
       "replace value of node /r/a/text() with \"y\"", "--id-base", "100",
       "--out", Path("p.xml")});
  // A zero byte budget tears the very first append: the commit must
  // fail, and a later open must recover the journal cleanly.
  setenv("XUPDATE_STORE_FAIL_AFTER_BYTES", "0", 1);
  std::ostringstream out;
  Status failed = RunCli({"store", "commit", "--dir", Path("store"),
                          "--pul", Path("p.xml")},
                         out);
  unsetenv("XUPDATE_STORE_FAIL_AFTER_BYTES");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  std::string recovered =
      Run({"store", "log", "--dir", Path("store")});
  EXPECT_NE(recovered.find("head: 0"), std::string::npos);
  std::string verify = Run({"store", "verify", "--dir", Path("store")});
  EXPECT_NE(verify.find("verify ok"), std::string::npos);
  // With the shim unset the same commit succeeds.
  std::string commit = Run(
      {"store", "commit", "--dir", Path("store"), "--pul", Path("p.xml")});
  EXPECT_NE(commit.find("committed version 1"), std::string::npos);
}

TEST_F(CliTest, StoreRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_FALSE(RunCli({"store"}, out).ok());
  EXPECT_FALSE(RunCli({"store", "init", "--doc", "x"}, out).ok());
  EXPECT_FALSE(
      RunCli({"store", "frobnicate", "--dir", Path("store")}, out).ok());
  WriteDoc("doc.xml", "<r/>");
  EXPECT_FALSE(RunCli({"store", "init", "--dir", Path("store"), "--doc",
                       Path("doc.xml"), "--fsync", "sometimes"},
                      out)
                   .ok());
}

// Every numeric flag goes through one validated parser; these pin the
// error contract (flag named, value echoed, reason stated) for the
// malformed shapes that used to slip through as silent zeros.
TEST_F(CliTest, NumericFlagRejectsNonNumericText) {
  std::ostringstream out;
  Status status = RunCli({"store", "log", "--dir", Path("store"),
                          "--parallelism=abc"},
                         out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--parallelism=abc"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("not a non-negative integer"),
            std::string::npos)
      << status;
}

TEST_F(CliTest, NumericFlagRejectsNegativeValues) {
  std::ostringstream out;
  Status status = RunCli({"store", "log", "--dir", Path("store"),
                          "--snapshot-every=-1"},
                         out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--snapshot-every=-1"), std::string::npos)
      << status;
  // A leading sign is malformed text, not a range violation.
  EXPECT_NE(status.message().find("not a non-negative integer"),
            std::string::npos)
      << status;
}

TEST_F(CliTest, NumericFlagRejectsOverflow) {
  std::ostringstream out;
  Status status = RunCli({"store", "log", "--dir", Path("store"),
                          "--snapshot-every", "99999999999999999999999"},
                         out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("overflows"), std::string::npos) << status;
  EXPECT_NE(status.message().find("--snapshot-every"), std::string::npos)
      << status;
}

TEST_F(CliTest, NumericFlagRejectsOutOfRangeValues) {
  std::ostringstream out;
  Status zero = RunCli({"store", "log", "--dir", Path("store"),
                        "--parallelism", "0"},
                       out);
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.message().find("out of range [1, 256]"), std::string::npos)
      << zero;
  Status big = RunCli({"store", "log", "--dir", Path("store"),
                       "--parallelism", "257"},
                      out);
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.message().find("out of range"), std::string::npos) << big;
}

TEST_F(CliTest, NumericFlagRejectsEmbeddedJunkAndSpaces) {
  std::ostringstream out;
  for (const std::string& bad : {"1 2", "0x10", "3.5", "", "+4"}) {
    Status status = RunCli({"store", "log", "--dir", Path("store"),
                            "--snapshot-every=" + bad},
                           out);
    EXPECT_FALSE(status.ok()) << "value " << '"' << bad << '"';
  }
}

TEST_F(CliTest, ServeAndLoadgenValidateFlagsBeforeTouchingTheSocket) {
  std::ostringstream out;
  Status serve = RunCli({"serve", "--socket", Path("s.sock"), "--data-dir",
                         Path("data"), "--commit-window-ms=oops"},
                        out);
  ASSERT_FALSE(serve.ok());
  EXPECT_NE(serve.message().find("--commit-window-ms=oops"),
            std::string::npos)
      << serve;
  // The malformed flag failed before the daemon bound its socket.
  EXPECT_FALSE(fs::exists(Path("s.sock")));

  Status loadgen =
      RunCli({"loadgen", "--socket", Path("s.sock"), "--items=-3"}, out);
  ASSERT_FALSE(loadgen.ok());
  EXPECT_NE(loadgen.message().find("--items=-3"), std::string::npos)
      << loadgen;

  Status window = RunCli({"serve", "--socket", Path("s.sock"), "--data-dir",
                          Path("data"), "--commit-window-ms", "10001"},
                         out);
  ASSERT_FALSE(window.ok());
  EXPECT_NE(window.message().find("out of range [0, 10000]"),
            std::string::npos)
      << window;
}

TEST_F(CliTest, ValidNumericFlagFormsStillParse) {
  WriteDoc("doc.xml", "<r><a>x</a></r>");
  // Both --flag value and --flag=value forms, at the range edges.
  Run({"store", "init", "--dir", Path("store"), "--doc", Path("doc.xml"),
       "--snapshot-every=0", "--parallelism", "1"});
  std::string log = Run({"store", "log", "--dir", Path("store"),
                         "--snapshot-every", "1", "--parallelism=256"});
  EXPECT_NE(log.find("head: 0"), std::string::npos);
}

}  // namespace
}  // namespace xupdate::tools
