// Golden digests: ExperimentResult::Digest() pinned per cell, so a change
// meant to keep the virtual plane bit-identical (a refactor, a host-cost
// optimization) shows every cell it moves. A change that moves a digest
// on purpose updates exactly the cells it names.
//
// Cells: every registered protocol at seeds 1 and 2 for 1 virtual s; a
// leader crash and a leader crash-restart for the stable-leader family
// (pbft, themis, prime, minbft); each scripted Byzantine mode against
// pbft and minbft. Each cell is its own test case so ctest runs them in
// parallel.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/registry.h"

namespace bftlab {
namespace {

struct GoldenCell {
  std::string name;
  ExperimentConfig config;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

ExperimentConfig BaseConfig(const std::string& protocol, SimTime duration) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.duration_us = duration;
  return cfg;
}

struct ModeCase {
  ByzantineMode mode;
  const char* name;
};

constexpr ModeCase kModes[] = {
    {ByzantineMode::kCrashSilent, "crash_silent"},
    {ByzantineMode::kEquivocate, "equivocate"},
    {ByzantineMode::kDelayProposals, "delay_proposals"},
    {ByzantineMode::kCensorClient, "censor_client"},
    {ByzantineMode::kReorderRequests, "reorder_requests"},
    {ByzantineMode::kSilentBackup, "silent_backup"},
    {ByzantineMode::kCounterRollback, "counter_rollback"},
    {ByzantineMode::kCounterFork, "counter_fork"},
};

ExperimentConfig ByzantineConfig(const std::string& protocol,
                                 ByzantineMode mode) {
  ExperimentConfig cfg = BaseConfig(protocol, Seconds(3));
  cfg.check_linearizability = true;
  ByzantineSpec spec;
  spec.mode = mode;
  spec.censor_target = kClientIdBase;
  spec.delay_us = Millis(20);
  // Leader attacks target the initial leader; the backup attacks sit at
  // the far end of the id space so they never lead early.
  const uint32_t n = GetProtocol(protocol, cfg.f)->RecommendedN(cfg.f);
  const bool backup = mode == ByzantineMode::kSilentBackup ||
                      mode == ByzantineMode::kCounterFork;
  cfg.byzantine[backup ? n - 1 : 0] = spec;
  return cfg;
}

std::vector<GoldenCell> AllCells() {
  std::vector<GoldenCell> cells;
  for (const std::string& protocol : AllProtocolNames()) {
    for (uint64_t seed : {1, 2}) {
      ExperimentConfig cfg = BaseConfig(protocol, Seconds(1));
      cfg.seed = seed;
      cells.push_back({protocol + "_s" + std::to_string(seed), cfg});
    }
  }
  for (const char* protocol : {"pbft", "themis", "prime", "minbft"}) {
    ExperimentConfig crash = BaseConfig(protocol, Seconds(3));
    crash.crash_at[0] = Millis(500);
    cells.push_back({std::string(protocol) + "_leader_crash", crash});
    ExperimentConfig restart = crash;
    restart.restart_at[0] = Millis(1500);
    cells.push_back({std::string(protocol) + "_leader_restart", restart});
  }
  for (const char* protocol : {"pbft", "minbft"}) {
    for (const ModeCase& mode : kModes) {
      cells.push_back({std::string(protocol) + "_" + mode.name,
                       ByzantineConfig(protocol, mode.mode)});
    }
  }
  return cells;
}

// Cells whose digest is pinned. A cell without an entry fails: a new
// cell must be pinned, and a cell that fails its oracles has no digest.
const std::map<std::string, std::string>& Golden() {
  static const std::map<std::string, std::string> kGolden = {
      {"pbft_s1",
       "0c8566e3ef74f54bb32f1e32d773b50610d94546f643013df26de7649f44e069"},
      {"pbft_s2",
       "58c8a26e779c3efa91144ef398002b5bd6efb8eded4547ec5a0d45673282ab13"},
      {"hotstuff_s1",
       "87ac7a5f96871a1684e64775ad398941ff2e8dcb6912abce5c3f18860fb07af2"},
      {"hotstuff_s2",
       "9fe52a6aa0aee0c4c283cb3be26654f1128cb1d315ae92923634ce70366f0f7b"},
      {"hotstuff2_s1",
       "9036cf1a3fa76abc99dc878876470edc674d4b60477a135122ae76f081d11f5f"},
      {"hotstuff2_s2",
       "f4a2f256bf3f0997ababfdae14e6e07bf1eca6634376bc2c0a605294aeb68a9b"},
      {"tendermint_s1",
       "451b0c652fc726d7a0605075be3293c1a69ee63c34bd692b3309d11fc9efc2cb"},
      {"tendermint_s2",
       "668edb03baa1143cdea8e36d27d39c08eae87f83727d292a89f3fa9890ab3585"},
      {"zyzzyva_s1",
       "607d660f854535e8611b4347364bc771126732442543767b8701b9fe1959e97f"},
      {"zyzzyva_s2",
       "9c23647d54bcb666aaf578f509a2618c89617655b7655cd5a9a66d724bca368e"},
      {"zyzzyva5_s1",
       "81b668ed24a17bc3762398e3dcc4691ae5e0c80e9f6d4fc1bf50254aa7502005"},
      {"zyzzyva5_s2",
       "5e4e0878fbe27c41336e145cc555e9e16eaa9d596d0985402f6fce20b4966a09"},
      {"sbft_s1",
       "17812583f674a5c63a55e7eb34ff86d2a88a907b0b78e892e5fee87fb2da9e94"},
      {"sbft_s2",
       "4c80ec51e610a5fbfcf2ab20c3d1c67f5d3e9bff83a02a57ad00639bb385412e"},
      {"poe_s1",
       "10415afb3526825b196036aeb5abd38307baf7405176372c890759ff9711ab4a"},
      {"poe_s2",
       "79f036f547ce03a2fce6880c586ea8fd72e7481f339970309c89941e0a2f16fd"},
      {"fab_s1",
       "60f5c88b39069ce4a1b9f43d45b8968a428d5e0bbba476f22206f0af7d939613"},
      {"fab_s2",
       "58fafdb2087358c5dd21da5cb92e55e3e997554bce03edd80f1ff6b80e782d22"},
      {"cheapbft_s1",
       "f002de64f416e01ab635b54c33b67e9f67071c63da760e51dcd476a6cbc70bde"},
      {"cheapbft_s2",
       "c267aedd5f0aafb4152177a126b0a6e1affbe9b5ea1f3b32800072e782a92ac9"},
      {"minbft_s1",
       "d4e56209704c4bd125c961cc9a7f663f624101ca9fe042a53381a14510ef459c"},
      {"minbft_s2",
       "db2e9df6315f99f72cd42ed1878b6ceb8baa20ecfa5cd1c73465b517aae8a317"},
      {"qu_s1",
       "f807c7b3d3744bd816c0fc386aa71d0e2663e2f3e2a0d3e8eac9eb9d55629645"},
      {"qu_s2",
       "55119e9ef79877de64fa9d8ea5d3883b64419833cca95fad0168d989be3a4e9f"},
      {"kauri_s1",
       "24a39fea3374e1523ae6aa43afb42778675b115240610289c5531dc9cb542889"},
      {"kauri_s2",
       "ec44df2320e81c89fed13692a60325405916ec47961cff447edbeb662def4960"},
      {"themis_s1",
       "8e113b0756245216476674ffe42d0a2608ebea4c5930920c44fdd94fc240867b"},
      {"themis_s2",
       "ebd6562919970a320183e436fc3426f8d4196d819b2dd7415af3ef6cef77d5d3"},
      {"prime_s1",
       "b964096307cef1e8742d5e9acb2b5d92d4bd32a9762141d90743c82df45131b0"},
      {"prime_s2",
       "7eb1e2f2ff912d0f1f51166f065cea4e7b5af5314a4a3acc96887ea67eb95d2e"},
      {"pbft_leader_crash",
       "0a46d4a5942948fd054a9555c84d20ec7edf82c53ff0b64ea2a56c58cb40955e"},
      {"pbft_leader_restart",
       "8bcc4dcdbd0f1bf5a65166d812aafea9f1bb0701fa4cab0e471bd6f45a2ce507"},
      {"themis_leader_crash",
       "5ffa99d5555d30b723409180b396ecb9cc129e51d7a1b34b3b2dbbe525300d12"},
      {"themis_leader_restart",
       "a89ceb8d3560735674a15c7b2ae53d70db7b64eb55f9b94886a6e63a7114c301"},
      {"prime_leader_crash",
       "18ca7aba9e50a55b92c5b18967395561fb3c90a247fc2b84d4a52158f82c58a5"},
      {"prime_leader_restart",
       "7f564f1039f7b21ece48937b3238ee3ede1b087f44a17fa840a7ded85881da8f"},
      {"minbft_leader_crash",
       "167908e5ea9f2c7c56da5f0ba354f7fead8d4f4cf01c431416d1574d8b3d387e"},
      {"minbft_leader_restart",
       "c2748d2dc3e5d03384b99811fafd9b423a1e938e4b4312f5a3359a87e9b46e16"},
      {"pbft_crash_silent",
       "a090052918267b610d692680163d6e09fb000d65fb90346885a065c812ee83d3"},
      {"pbft_equivocate",
       "b5d44bb705854ab806d09625b414b3d0876b49e9d8ec2a00334d9a8849bc4315"},
      {"pbft_delay_proposals",
       "0d915b53048b2a730c55cfaffbe9f262ecac0e88196eab05badefe1cea7f14ae"},
      {"pbft_censor_client",
       "b82a2731cff53f3b1f5f580b4ebb36cbf20bf642bedac56ce7e08bd2ed54a675"},
      {"pbft_reorder_requests",
       "19e197162a2123c1a9a7c0dd15cf3268e9b4ea93455fa24c64e586c684673330"},
      {"pbft_silent_backup",
       "57cb1b1fd3900ab022e3ebb16b395a447b919e417be7b248b34f04e21f8ce4e1"},
      {"pbft_counter_rollback",
       "034bebab5eb674fdc8f0fac181af561600c8611c8d614a77c2d9c214b71e3ebf"},
      {"pbft_counter_fork",
       "034bebab5eb674fdc8f0fac181af561600c8611c8d614a77c2d9c214b71e3ebf"},
      {"minbft_crash_silent",
       "b315f2af624817ace32a3308bb275e550e4c868d4501d4700c917640808cd833"},
      {"minbft_equivocate",
       "f82410b86b78a177b93394ea1efe7417ab8245a6d0b41b9e29e6416f0060b86d"},
      {"minbft_delay_proposals",
       "e287c9b7af4f3a2d8359d0aaf33e367ddd7002d5ed2279d3800fabe7552eec86"},
      {"minbft_censor_client",
       "264a7be23e4cd85991bec14cd5421df8dc7ab6718b7a2519838302298d449004"},
      {"minbft_reorder_requests",
       "45f7c967e75c37cada89908b36a8053bdd04ebdf49dadfec23557747cc144abe"},
      {"minbft_silent_backup",
       "8ec55cc092953dc9da1e0ae4a363180e2f8874c82bad5d44501efddb4fe7dae7"},
      {"minbft_counter_rollback",
       "f0a6862e8ada50467802bc326c316372829ae3794306d4ea492a752e492a7973"},
      {"minbft_counter_fork",
       "1c0c6ea8588291b8a0919db3bf4033b78de91013d24f26a56bd85150b28c7421"},
  };
  return kGolden;
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenDigestTest, DigestIsPinned) {
  const GoldenCell& cell = GetParam();
  Result<ExperimentResult> r = RunExperiment(cell.config);
  ASSERT_TRUE(r.ok()) << cell.name << ": " << r.status().ToString();
  auto golden = Golden().find(cell.name);
  ASSERT_NE(golden, Golden().end())
      << cell.name << " is not pinned; its digest is " << r->Digest();
  EXPECT_EQ(r->Digest(), golden->second) << cell.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenDigestTest, ::testing::ValuesIn(AllCells()),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bftlab
