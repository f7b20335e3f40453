#include "server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/framing.h"
#include "common/metrics.h"
#include "common/socket.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "server/client.h"
#include "store/version.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::server {
namespace {

namespace fs = std::filesystem;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_server_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    socket_path_ = (dir_ / "s.sock").string();

    doc_ = xupdate::testing::PaperFigureDocument();
    auto xml = store::VersionStore::SerializeAnnotated(doc_);
    ASSERT_TRUE(xml.ok());
    base_xml_ = *xml;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      ASSERT_TRUE(server_->Stop().ok());
      server_.reset();
    }
    fs::remove_all(dir_);
  }

  void StartServer(int commit_window_ms = 0, size_t max_pending = 128,
                   int64_t fail_after_bytes = -1,
                   size_t max_pending_per_tenant = 0) {
    ServerOptions options;
    options.socket_path = socket_path_;
    options.data_dir = (dir_ / "data").string();
    options.commit_window_ms = commit_window_ms;
    options.max_pending = max_pending;
    options.max_pending_per_tenant = max_pending_per_tenant;
    options.store.fail_after_bytes = fail_after_bytes;
    options.store.snapshot_every = 0;  // keep fsync counters WAL-only
    options.store.snapshot_bytes = 0;
    options.metrics = &metrics_;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  Client Connect() {
    auto client = Client::Connect(socket_path_);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  // A chain of PULs applicable in order starting from the base document,
  // serialized; expected_[v] = annotated bytes of version v.
  std::vector<std::string> ChainXml(size_t n, uint64_t seed) {
    label::Labeling labeling = label::Labeling::Build(doc_);
    workload::PulGenerator gen(doc_, labeling, seed);
    workload::PulGenerator::SequenceOptions seq;
    seq.num_puls = n;
    seq.ops_per_pul = 3;
    auto puls = gen.GenerateSequence(seq);
    EXPECT_TRUE(puls.ok()) << puls.status();
    expected_.clear();
    expected_.push_back(base_xml_);
    xml::Document working = doc_;
    std::vector<std::string> out;
    for (const pul::Pul& pul : *puls) {
      EXPECT_TRUE(pul::ApplyPul(&working, pul).ok());
      auto bytes = store::VersionStore::SerializeAnnotated(working);
      EXPECT_TRUE(bytes.ok());
      expected_.push_back(*bytes);
      auto xml = pul::SerializePul(pul);
      EXPECT_TRUE(xml.ok());
      out.push_back(*xml);
    }
    return out;
  }

  static Message CommitRequest(const std::string& tenant,
                               const std::string& pul_xml) {
    Message msg;
    msg.type = MsgType::kCommit;
    msg.payload = {tenant, pul_xml};
    return msg;
  }

  fs::path dir_;
  std::string socket_path_;
  Metrics metrics_;
  std::unique_ptr<Server> server_;
  xml::Document doc_;
  std::string base_xml_;
  std::vector<std::string> expected_;
};

TEST_F(ServerTest, LifecycleOpenCommitCheckout) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());

  auto head = client.Open("t0", base_xml_);
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_EQ(*head, 0u);

  std::vector<std::string> chain = ChainXml(3, 7);
  for (size_t i = 0; i < chain.size(); ++i) {
    auto ack = client.Commit("t0", chain[i]);
    ASSERT_TRUE(ack.ok()) << ack.status();
    EXPECT_FALSE(ack->busy);
    EXPECT_EQ(ack->version, i + 1);
  }
  for (uint64_t v = 0; v < expected_.size(); ++v) {
    auto xml = client.Checkout("t0", v);
    ASSERT_TRUE(xml.ok()) << "v=" << v << ": " << xml.status();
    EXPECT_EQ(*xml, expected_[v]) << "v=" << v;
  }
  auto head_xml = client.Checkout("t0", 0, /*head=*/true);
  ASSERT_TRUE(head_xml.ok());
  EXPECT_EQ(*head_xml, expected_.back());

  auto stat = client.Stat();
  ASSERT_TRUE(stat.ok());
  EXPECT_NE(stat->find("store.commit.count"), std::string::npos);
}

TEST_F(ServerTest, ReduceMatchesLocalEngine) {
  StartServer();
  Client client = Connect();
  label::Labeling labeling = label::Labeling::Build(doc_);
  workload::PulGenerator gen(doc_, labeling, 13);
  workload::PulGenerator::PulOptions popts;
  popts.num_ops = 40;
  popts.reducible_fraction = 0.3;
  auto pul = gen.Generate(popts);
  ASSERT_TRUE(pul.ok());
  auto pul_xml = pul::SerializePul(*pul);
  ASSERT_TRUE(pul_xml.ok());

  auto remote = client.Reduce(*pul_xml, "deterministic", 1);
  ASSERT_TRUE(remote.ok()) << remote.status();

  core::ReduceOptions ropts;
  ropts.mode = core::ReduceMode::kDeterministic;
  auto local = core::Reduce(*pul, ropts);
  ASSERT_TRUE(local.ok());
  auto local_xml = pul::SerializePul(*local);
  ASSERT_TRUE(local_xml.ok());
  EXPECT_EQ(*remote, *local_xml);
}

// Two connections send reduce and integrate at parallelism 2 at the
// same time, so both run on the server's one reasoning pool at once.
// Every response must be byte-identical to the local parallelism-1
// result.
TEST_F(ServerTest, ConcurrentParallelReasoningSharesOnePool) {
  StartServer();
  xmark::Config config;
  config.target_bytes = 128 << 10;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);
  workload::PulGenerator gen(*doc, labeling, 2024);
  workload::PulGenerator::PulOptions popts;
  popts.num_ops = 3000;
  popts.reducible_fraction = 0.2;
  auto pul = gen.Generate(popts);
  ASSERT_TRUE(pul.ok()) << pul.status();
  workload::PulGenerator::ConflictOptions copts;
  copts.num_puls = 4;
  copts.ops_per_pul = 300;
  copts.conflicting_fraction = 0.4;
  copts.ops_per_conflict = 3;
  auto puls = gen.GenerateConflicting(copts);
  ASSERT_TRUE(puls.ok()) << puls.status();

  // The local parallelism-1 results, and proof that both requests have
  // more than one unit resp. shard to spread.
  core::ReduceOptions ropts;
  ropts.mode = core::ReduceMode::kDeterministic;
  core::ReduceStats rstats;
  auto reduced = core::Reduce(*pul, ropts, &rstats);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_GT(rstats.units, 1u);
  auto reduce_expected = pul::SerializePul(*reduced);
  ASSERT_TRUE(reduce_expected.ok());
  std::vector<const pul::Pul*> refs;
  std::vector<std::string> integrate_request;
  for (const pul::Pul& p : *puls) {
    refs.push_back(&p);
    auto xml = pul::SerializePul(p);
    ASSERT_TRUE(xml.ok());
    integrate_request.push_back(*xml);
  }
  Metrics local_metrics;
  core::IntegrateOptions iopts;
  iopts.metrics = &local_metrics;
  auto merged = core::Integrate(refs, iopts);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_GT(local_metrics.counter("integrate.shards"), 1u);
  auto integrate_expected = pul::SerializePul(merged->merged);
  ASSERT_TRUE(integrate_expected.ok());
  auto reduce_request = pul::SerializePul(*pul);
  ASSERT_TRUE(reduce_request.ok());

  auto session = [&] {
    Client client = Connect();
    for (int round = 0; round < 3; ++round) {
      auto r = client.Reduce(*reduce_request, "deterministic", 2);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, *reduce_expected);
      auto i = client.Integrate(integrate_request, 2);
      ASSERT_TRUE(i.ok()) << i.status();
      EXPECT_EQ(i->merged_xml, *integrate_expected);
      EXPECT_EQ(i->conflicts, merged->conflicts.size());
    }
  };
  std::thread first(session);
  std::thread second(session);
  first.join();
  second.join();
}

TEST_F(ServerTest, GroupCommitCoalescesFsyncs) {
  // The acceptance criterion: N concurrent commits, strictly fewer than
  // N fsyncs. One pipelined connection is the 1-core-proof way to get N
  // commits into one batch window — the read loop admits them all to
  // the batcher while the writer thread is still waiting on the first.
  constexpr size_t kCommits = 8;
  StartServer(/*commit_window_ms=*/50);
  Client client = Connect();
  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  std::vector<std::string> chain = ChainXml(kCommits, 21);

  uint64_t fsyncs_before = metrics_.counter("store.wal.fsync.count");
  for (const std::string& pul_xml : chain) {
    ASSERT_TRUE(client.Send(CommitRequest("t0", pul_xml)).ok());
  }
  for (size_t i = 0; i < kCommits; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    ASSERT_EQ(response->type, MsgType::kOk) << i;
    EXPECT_EQ(response->a, i + 1);
  }
  uint64_t fsyncs = metrics_.counter("store.wal.fsync.count") - fsyncs_before;
  EXPECT_GE(fsyncs, 1u);
  EXPECT_LT(fsyncs, kCommits)
      << "group commit failed to coalesce: " << fsyncs << " fsyncs for "
      << kCommits << " commits";
  EXPECT_EQ(metrics_.counter("store.commit.count"), kCommits);

  // And the batched history byte-matches the local sequential replay.
  for (uint64_t v = 0; v <= kCommits; ++v) {
    auto xml = client.Checkout("t0", v);
    ASSERT_TRUE(xml.ok()) << "v=" << v;
    EXPECT_EQ(*xml, expected_[v]) << "v=" << v;
  }
}

TEST_F(ServerTest, CheckoutObservesEarlierPipelinedCommit) {
  // Responses are FIFO and read-only requests run after every commit
  // queued before them on the same connection: a pipelined
  // commit+checkout pair must return the POST-commit document.
  StartServer(/*commit_window_ms=*/20);
  Client client = Connect();
  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  std::vector<std::string> chain = ChainXml(1, 33);

  ASSERT_TRUE(client.Send(CommitRequest("t0", chain[0])).ok());
  Message checkout;
  checkout.type = MsgType::kCheckout;
  checkout.b = 1;  // head
  checkout.payload = {"t0"};
  ASSERT_TRUE(client.Send(checkout).ok());

  auto commit_ack = client.Receive();
  ASSERT_TRUE(commit_ack.ok());
  ASSERT_EQ(commit_ack->type, MsgType::kOk);
  EXPECT_EQ(commit_ack->a, 1u);
  auto checkout_ack = client.Receive();
  ASSERT_TRUE(checkout_ack.ok());
  ASSERT_EQ(checkout_ack->type, MsgType::kOk);
  EXPECT_EQ(checkout_ack->a, 1u);
  ASSERT_EQ(checkout_ack->payload.size(), 1u);
  EXPECT_EQ(checkout_ack->payload[0], expected_[1]);
}

TEST_F(ServerTest, FullAdmissionQueueShedsWithBusy) {
  // max_pending=1 and a long window: the first commit occupies the
  // queue for the whole window, so pipelined followers are shed with
  // kBusy — explicit load feedback, not an error, and not a hang.
  StartServer(/*commit_window_ms=*/200, /*max_pending=*/1);
  Client client = Connect();
  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  std::vector<std::string> chain = ChainXml(1, 41);

  constexpr size_t kSent = 6;
  for (size_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client.Send(CommitRequest("t0", chain[0])).ok());
  }
  size_t ok = 0, busy = 0, error = 0;
  for (size_t i = 0; i < kSent; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    if (response->type == MsgType::kOk) {
      ++ok;
    } else if (response->type == MsgType::kBusy) {
      ++busy;
    } else {
      ++error;  // admitted after the drain, no longer applicable
    }
  }
  EXPECT_EQ(ok + busy + error, kSent);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(busy, 1u);
  EXPECT_EQ(metrics_.counter("server.busy.count"), busy);
  // The session is alive and well after shedding.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, PerTenantQuotaShedsHotTenantOnly) {
  // One hot tenant pipelining into a long window must be shed at its
  // quota while another tenant's commit sails through — the regression
  // this guards: before per-tenant accounting, the hot tenant could
  // monopolize the shared admission queue.
  StartServer(/*commit_window_ms=*/200, /*max_pending=*/128,
              /*fail_after_bytes=*/-1, /*max_pending_per_tenant=*/1);
  Client hot = Connect();
  Client cold = Connect();
  ASSERT_TRUE(hot.Open("t0", base_xml_).ok());
  ASSERT_TRUE(cold.Open("t1", base_xml_).ok());
  std::vector<std::string> hot_chain = ChainXml(1, 41);
  std::vector<std::string> cold_chain = ChainXml(1, 43);

  constexpr size_t kSent = 6;
  for (size_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(hot.Send(CommitRequest("t0", hot_chain[0])).ok());
  }
  // Admitted into the same window the hot tenant saturated: must be
  // kOk, not kBusy.
  auto cold_ack = cold.Commit("t1", cold_chain[0]);
  ASSERT_TRUE(cold_ack.ok()) << cold_ack.status();
  EXPECT_FALSE(cold_ack->busy);
  EXPECT_EQ(cold_ack->version, 1u);

  size_t ok = 0, busy = 0, error = 0;
  for (size_t i = 0; i < kSent; ++i) {
    auto response = hot.Receive();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    if (response->type == MsgType::kOk) {
      ++ok;
    } else if (response->type == MsgType::kBusy) {
      ++busy;
    } else {
      ++error;  // re-admitted after a drain, no longer applicable
    }
  }
  EXPECT_EQ(ok + busy + error, kSent);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(busy, 1u);
  EXPECT_EQ(metrics_.counter("server.busy.tenant_quota"), busy);
  EXPECT_EQ(metrics_.counter("server.busy.count"), busy);
  EXPECT_TRUE(hot.Ping().ok());
}

TEST_F(ServerTest, MultiTenantBatchCommitsEveryGroup) {
  // Two tenants pipeline chains into the same batch window. The batcher
  // commits one group per tenant, in arrival order; every version of
  // both stores must match its tenant's local sequential replay.
  constexpr size_t kCommits = 3;
  StartServer(/*commit_window_ms=*/300);
  Client a = Connect();
  Client b = Connect();
  ASSERT_TRUE(a.Open("t0", base_xml_).ok());
  ASSERT_TRUE(b.Open("t1", base_xml_).ok());
  std::vector<std::string> chain_a = ChainXml(kCommits, 71);
  std::vector<std::string> expected_a = expected_;
  std::vector<std::string> chain_b = ChainXml(kCommits, 73);
  std::vector<std::string> expected_b = expected_;

  for (size_t i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(a.Send(CommitRequest("t0", chain_a[i])).ok());
    ASSERT_TRUE(b.Send(CommitRequest("t1", chain_b[i])).ok());
  }
  for (Client* client : {&a, &b}) {
    for (size_t i = 0; i < kCommits; ++i) {
      auto response = client->Receive();
      ASSERT_TRUE(response.ok()) << i << ": " << response.status();
      ASSERT_EQ(response->type, MsgType::kOk) << i;
      EXPECT_EQ(response->a, i + 1);
    }
  }
  EXPECT_EQ(metrics_.counter("store.commit.count"), 2 * kCommits);

  for (uint64_t v = 0; v <= kCommits; ++v) {
    auto xml_a = a.Checkout("t0", v);
    ASSERT_TRUE(xml_a.ok()) << "v=" << v << ": " << xml_a.status();
    EXPECT_EQ(*xml_a, expected_a[v]) << "t0 v=" << v;
    auto xml_b = b.Checkout("t1", v);
    ASSERT_TRUE(xml_b.ok()) << "v=" << v << ": " << xml_b.status();
    EXPECT_EQ(*xml_b, expected_b[v]) << "t1 v=" << v;
  }
}

TEST_F(ServerTest, MidRequestDisconnectLeavesServerServing) {
  StartServer();
  {
    auto raw = UnixSocket::Connect(socket_path_);
    ASSERT_TRUE(raw.ok()) << raw.status();
    // Half a frame header, then vanish mid-request.
    ASSERT_TRUE(raw->SendAll(std::string("\x40\x00\x00", 3)).ok());
    ASSERT_TRUE(raw->Close().ok());
  }
  // The next connection is served normally and the torn read counted.
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  for (int i = 0; i < 100 && metrics_.counter("server.recv.errors") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metrics_.counter("server.recv.errors"), 1u);
}

TEST_F(ServerTest, GarbageFrameDropsConnectionOnly) {
  StartServer();
  {
    auto raw = UnixSocket::Connect(socket_path_);
    ASSERT_TRUE(raw.ok());
    // A complete frame header claiming 4 bytes with a wrong CRC.
    std::string bad;
    framing::PutU32(&bad, 4);
    framing::PutU32(&bad, 0xdeadbeef);
    bad += "ABCD";
    ASSERT_TRUE(raw->SendAll(bad).ok());
    // The server drops the unframeable connection; our next read sees
    // EOF rather than a response.
    std::string response;
    EXPECT_FALSE(raw->RecvFrame(kDefaultMaxMessageBytes, &response).ok());
    (void)raw->Close();
  }
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, MalformedMessageGetsErrorResponseSessionSurvives) {
  StartServer();
  auto raw = UnixSocket::Connect(socket_path_);
  ASSERT_TRUE(raw.ok());
  // CRC-clean frame whose body is garbage for the message layer.
  ASSERT_TRUE(raw->SendFrame({"not a message"}).ok());
  std::string response;
  Status received = raw->RecvFrame(kDefaultMaxMessageBytes, &response);
  ASSERT_TRUE(received.ok()) << received;
  auto msg = DecodeMessage(response, /*expect_request=*/false);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, MsgType::kError);
  // Same connection still answers a well-formed request.
  Message ping;
  ping.type = MsgType::kPing;
  ASSERT_TRUE(SendMessage(&*raw, ping).ok());
  std::string pong;
  ASSERT_TRUE(raw->RecvFrame(kDefaultMaxMessageBytes, &pong).ok());
}

TEST_F(ServerTest, CommitAfterWalPoisonErrorsWithoutWedging) {
  // Inject a WAL write failure: every commit tears in the journal and
  // must come back as an error response — the session, the tenant and
  // the server all keep serving.
  StartServer(/*commit_window_ms=*/0, /*max_pending=*/128,
              /*fail_after_bytes=*/10);
  Client client = Connect();
  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  std::vector<std::string> chain = ChainXml(2, 51);

  auto poisoned = client.Commit("t0", chain[0]);
  EXPECT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kIoError);

  // Not wedged: the same session answers reads and further commits.
  EXPECT_TRUE(client.Ping().ok());
  auto xml = client.Checkout("t0", 0);
  ASSERT_TRUE(xml.ok()) << xml.status();
  EXPECT_EQ(*xml, base_xml_);
  auto again = client.Commit("t0", chain[0]);
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, OpenValidatesTenantAndReopenRules) {
  StartServer();
  Client client = Connect();
  EXPECT_FALSE(client.Open("../../etc", base_xml_).ok());
  EXPECT_FALSE(client.Commit("nope", "<pul/>").ok());
  EXPECT_FALSE(client.Open("t0", "").ok());  // nothing to reopen

  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  // Re-opening with a fresh initial document is refused...
  EXPECT_FALSE(client.Open("t0", base_xml_).ok());
  // ...but an empty reopen is idempotent and reports the head.
  auto head = client.Open("t0", "");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, 0u);
}

TEST_F(ServerTest, ShutdownRequestStopsWait) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Open("t0", base_xml_).ok());
  std::thread waiter([this] { server_->Wait(); });
  ASSERT_TRUE(client.Shutdown().ok());
  waiter.join();
  ASSERT_TRUE(server_->Stop().ok());
  server_.reset();

  // The tenant's store was closed cleanly: a direct reopen sees v0.
  auto reopened =
      store::VersionStore::Open((dir_ / "data" / "t0").string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->head(), 0u);
}

TEST_F(ServerTest, TenantStateSurvivesServerRestart) {
  StartServer();
  std::vector<std::string> chain = ChainXml(2, 61);
  {
    Client client = Connect();
    ASSERT_TRUE(client.Open("t0", base_xml_).ok());
    for (const std::string& pul_xml : chain) {
      ASSERT_TRUE(client.Commit("t0", pul_xml).ok());
    }
  }
  ASSERT_TRUE(server_->Stop().ok());
  server_.reset();

  StartServer();
  Client client = Connect();
  auto head = client.Open("t0", "");
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_EQ(*head, 2u);
  auto xml = client.Checkout("t0", 2);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, expected_[2]);
}

}  // namespace
}  // namespace xupdate::server
