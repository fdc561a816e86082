// Randomized reference-model tests ("fuzz lite"): drive the table
// implementations with long random operation sequences and check them
// against trivially-correct reference models. These catch state-machine
// bugs that the scenario tests can't reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include <unistd.h>

#include "dataplane/pipeline.h"
#include "duet/smux.h"
#include "dataplane/tables.h"
#include "net/wire.h"
#include "persist/ctl_protocol.h"
#include "persist/framing.h"
#include "persist/op_log.h"
#include "routing/rib.h"
#include "util/random.h"

// The control-plane decoder fuzzers bound every allocation a decoder makes by
// its input's size. Outside the sanitizer builds (whose runtimes own
// operator new) this binary's operator new records the largest request
// while a LargestAllocation scope is open on the calling thread.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DUET_FUZZ_TRACKS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DUET_FUZZ_TRACKS_ALLOCATIONS 0
#endif
#endif
#ifndef DUET_FUZZ_TRACKS_ALLOCATIONS
#define DUET_FUZZ_TRACKS_ALLOCATIONS 1
#endif

namespace {
thread_local std::size_t* g_largest_allocation = nullptr;
}  // namespace

#if DUET_FUZZ_TRACKS_ALLOCATIONS
// Out of line, so the compiler never pairs an inlined malloc() or free()
// with the other side's operator.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_largest_allocation != nullptr && n > *g_largest_allocation) *g_largest_allocation = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace duet {
namespace {

// The largest single operator-new request made on this thread while in
// scope (always 0 in the sanitizer builds).
class LargestAllocation {
 public:
  LargestAllocation() : outer_(g_largest_allocation) { g_largest_allocation = &bytes_; }
  ~LargestAllocation() { g_largest_allocation = outer_; }
  LargestAllocation(const LargestAllocation&) = delete;
  LargestAllocation& operator=(const LargestAllocation&) = delete;
  std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::size_t bytes_ = 0;
  std::size_t* outer_;
};

// What a decoder may allocate for an input of `n` bytes: a constant factor
// of the input (element structs outweigh their encodings) plus slack for
// fixed-size scratch.
constexpr std::size_t allocation_bound(std::size_t n) { return 64 * n + 4096; }

// --- LPM table vs. linear-scan reference ------------------------------------------

class LpmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmFuzz, MatchesLinearScanReference) {
  Rng rng{GetParam()};
  LpmTable table;
  std::map<Ipv4Prefix, EcmpGroupId> reference;

  auto random_prefix = [&] {
    const auto len = static_cast<std::uint8_t>(rng.uniform(33));
    return Ipv4Prefix{Ipv4Address{static_cast<std::uint32_t>(rng())}, len};
  };

  for (int op = 0; op < 3000; ++op) {
    const auto roll = rng.uniform(10);
    if (roll < 5) {
      const auto p = random_prefix();
      const auto g = static_cast<EcmpGroupId>(rng.uniform(1000));
      table.insert(p, g);
      reference[p] = g;
    } else if (roll < 7 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, rng.uniform(reference.size()));
      table.erase(it->first);
      reference.erase(it);
    } else {
      // Query: longest matching prefix in the reference wins.
      const Ipv4Address addr{static_cast<std::uint32_t>(rng())};
      std::optional<EcmpGroupId> want;
      int best_len = -1;
      for (const auto& [prefix, group] : reference) {
        if (prefix.contains(addr) && prefix.length() > best_len) {
          best_len = prefix.length();
          want = group;
        }
      }
      EXPECT_EQ(table.lookup(addr), want) << "op " << op << " addr " << addr.to_string();
    }
  }
  EXPECT_EQ(table.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmFuzz, ::testing::Values(1ULL, 7ULL, 1234ULL));

// --- Rib vs. reference ---------------------------------------------------------------

class RibFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibFuzz, MatchesReference) {
  Rng rng{GetParam()};
  Rib rib;
  std::map<Ipv4Prefix, std::set<SwitchId>> reference;

  auto random_prefix = [&] {
    // A small prefix universe so announce/withdraw collide often.
    const std::uint8_t lens[] = {8, 16, 24, 32};
    const auto len = lens[rng.uniform(4)];
    const std::uint32_t base = (100u << 24) + static_cast<std::uint32_t>(rng.uniform(64));
    return Ipv4Prefix{Ipv4Address{base}, len};
  };

  for (int op = 0; op < 4000; ++op) {
    const auto roll = rng.uniform(10);
    const auto origin = static_cast<SwitchId>(rng.uniform(6));
    if (roll < 4) {
      const auto p = random_prefix();
      rib.announce(p, origin);
      reference[p].insert(origin);
    } else if (roll < 6 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, rng.uniform(reference.size()));
      rib.withdraw(it->first, origin);
      it->second.erase(origin);
      if (it->second.empty()) reference.erase(it);
    } else if (roll == 6) {
      rib.withdraw_all_from(origin);
      for (auto it = reference.begin(); it != reference.end();) {
        it->second.erase(origin);
        it = it->second.empty() ? reference.erase(it) : std::next(it);
      }
    } else {
      const Ipv4Address addr{(100u << 24) + static_cast<std::uint32_t>(rng.uniform(64))};
      // Reference: longest prefix containing addr; all its origins, sorted.
      std::vector<SwitchId> want;
      int best_len = -1;
      for (const auto& [prefix, origins] : reference) {
        if (prefix.contains(addr) && prefix.length() > best_len) {
          best_len = prefix.length();
          want.assign(origins.begin(), origins.end());
        }
      }
      EXPECT_EQ(rib.lookup(addr), want) << "op " << op;
    }
  }
  std::size_t pairs = 0;
  for (const auto& [p, o] : reference) pairs += o.size();
  EXPECT_EQ(rib.route_count(), pairs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibFuzz, ::testing::Values(2ULL, 99ULL, 31415ULL));

// --- SwitchDataPlane VIP churn vs. capacity invariants --------------------------------

class DataplaneChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataplaneChurn, TablesNeverLeakUnderRandomChurn) {
  Rng rng{GetParam()};
  SwitchDataPlane dp{FlowHasher{GetParam()}};
  const std::size_t tunnel_cap = dp.free_tunnel_entries();
  const std::size_t ecmp_cap = dp.free_ecmp_entries();
  const std::size_t host_cap = dp.free_host_entries();

  // Reference: vip -> dip count currently installed.
  std::unordered_map<Ipv4Address, std::size_t> installed;
  std::size_t installed_slots = 0;

  for (int op = 0; op < 2000; ++op) {
    const auto vip = Ipv4Address{(100u << 24) + static_cast<std::uint32_t>(rng.uniform(40))};
    const auto roll = rng.uniform(10);
    if (roll < 5) {
      // Install with 1..24 DIPs.
      const std::size_t n = 1 + rng.uniform(24);
      std::vector<Ipv4Address> dips;
      for (std::size_t i = 0; i < n; ++i) {
        dips.push_back(Ipv4Address{(10u << 24) + static_cast<std::uint32_t>(rng())});
      }
      const bool ok = dp.install_vip(vip, dips);
      const bool expect_ok = !installed.contains(vip) && installed_slots + n <= tunnel_cap;
      EXPECT_EQ(ok, expect_ok) << "op " << op;
      if (ok) {
        installed[vip] = n;
        installed_slots += n;
      }
    } else if (roll < 8) {
      const bool ok = dp.remove_vip(vip);
      EXPECT_EQ(ok, installed.contains(vip));
      if (ok) {
        installed_slots -= installed[vip];
        installed.erase(vip);
      }
    } else {
      // Data path exercise on a random VIP.
      Packet p{FiveTuple{Ipv4Address{static_cast<std::uint32_t>(rng())}, vip,
                         static_cast<std::uint16_t>(rng()), 80, IpProto::kTcp},
               64};
      const auto verdict = dp.process(p);
      if (installed.contains(vip)) {
        EXPECT_EQ(verdict, PipelineVerdict::kEncapsulated);
      } else {
        EXPECT_EQ(verdict, PipelineVerdict::kNoMatch);
      }
    }
    // Accounting invariants hold after every op.
    ASSERT_EQ(dp.free_tunnel_entries(), tunnel_cap - installed_slots);
    ASSERT_EQ(dp.free_ecmp_entries(), ecmp_cap - installed_slots);
    ASSERT_EQ(dp.free_host_entries(), host_cap - installed.size());
    ASSERT_EQ(dp.vip_count(), installed.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataplaneChurn, ::testing::Values(3ULL, 42ULL, 777ULL));

// --- Wire format: parse_packet over mutated datagrams ----------------------------------
//
// The live runtime feeds parse_packet bytes straight off a socket, so it
// must be total: any input either parses to a Packet whose reserialization
// is a parse_packet fixed point, or is rejected — never a crash, over-read
// (the sanitizer legs check that), or a Packet that disagrees with its own
// wire image. Mutations cover bit flips, truncation, trailing garbage, and
// checksum-corrected total-length corruption (the one a naive parser
// accepts and then mis-frames).

// Byte-level mutations shared with the control-plane decoder fuzzers below.
enum class Mutation { kFlip, kTruncate, kGarbage, kCountBomb };

void mutate(std::vector<std::uint8_t>& bytes, Mutation m, Rng& rng) {
  switch (m) {
    case Mutation::kFlip:  // flip a few random bits
      if (bytes.empty()) break;
      for (std::size_t k = 1 + rng.uniform(8); k > 0; --k) {
        bytes[rng.uniform(bytes.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      break;
    case Mutation::kTruncate:
      if (!bytes.empty()) bytes.resize(rng.uniform(bytes.size()));
      break;
    case Mutation::kGarbage:  // trailing garbage
      for (std::size_t k = 1 + rng.uniform(24); k > 0; --k) {
        bytes.push_back(static_cast<std::uint8_t>(rng()));
      }
      break;
    case Mutation::kCountBomb: {
      // A huge little-endian u32 anywhere: lands on a length or count field
      // often enough to try every decoder's allocation guard.
      if (bytes.size() < 4) break;
      const std::uint32_t bombs[] = {0xffffffffu, 0x7fffffffu, 1u << 24, 1u << 20,
                                     static_cast<std::uint32_t>(bytes.size())};
      const std::uint32_t v = bombs[rng.uniform(5)];
      const std::size_t at = rng.uniform(bytes.size() - 3);
      for (int b = 0; b < 4; ++b) bytes[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
      break;
    }
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MutatedDatagramsNeverBreakTheParser) {
  Rng rng{GetParam()};
  const IpProto protos[] = {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp};

  for (int iter = 0; iter < 1500; ++iter) {
    // A random packet with 0-2 encap layers (Duet's live depths).
    const FiveTuple t{Ipv4Address{static_cast<std::uint32_t>(rng())},
                      Ipv4Address{static_cast<std::uint32_t>(rng())},
                      static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
                      protos[rng.uniform(3)]};
    Packet p{t, static_cast<std::uint32_t>(24 + rng.uniform(180))};
    const std::size_t depth = rng.uniform(3);
    for (std::size_t d = 0; d < depth; ++d) {
      p.encapsulate(EncapHeader{Ipv4Address{static_cast<std::uint32_t>(rng())},
                                Ipv4Address{static_cast<std::uint32_t>(rng())}});
    }
    const auto bytes = serialize_packet(p);

    // Clean bytes: parse succeeds and serialize∘parse is the identity.
    const auto parsed = parse_packet(bytes);
    ASSERT_TRUE(parsed.has_value()) << "iter " << iter;
    ASSERT_EQ(serialize_packet(*parsed), bytes) << "iter " << iter;

    // Mutate.
    auto mutated = bytes;
    switch (const auto kind = rng.uniform(4)) {
      case 0:
      case 1:
      case 2:
        mutate(mutated, static_cast<Mutation>(kind), rng);
        break;
      default: {
        // Corrupt one layer's total_length, then FIX its checksum so only
        // the cross-layer length consistency check can reject it.
        const std::size_t layer = rng.uniform(depth + 1);
        const std::size_t at = layer * kIpv4HeaderBytes;
        mutated[at + 2] = static_cast<std::uint8_t>(rng());
        mutated[at + 3] = static_cast<std::uint8_t>(rng());
        mutated[at + 10] = mutated[at + 11] = 0;
        const std::uint16_t csum = ipv4_header_checksum(
            std::span<const std::uint8_t>(mutated).subspan(at, kIpv4HeaderBytes));
        mutated[at + 10] = static_cast<std::uint8_t>(csum >> 8);
        mutated[at + 11] = static_cast<std::uint8_t>(csum & 0xff);
        break;
      }
    }

    // Must not crash or over-read; a survivor must reserialize to a wire
    // image the parser agrees with (fixed point after one serialize).
    const auto reparsed = parse_packet(mutated);
    if (reparsed.has_value()) {
      const auto wire = serialize_packet(*reparsed);
      const auto again = parse_packet(wire);
      ASSERT_TRUE(again.has_value()) << "iter " << iter;
      ASSERT_EQ(serialize_packet(*again), wire) << "iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(17ULL, 404ULL, 0xfeedULL));

// --- Control plane: decode_request, decode_op, read_frames over mutated input ---------
//
// duetd decodes ops-socket frames from any local client and op-log records
// from disk after a crash, so these decoders must be total like
// parse_packet: never crash, never allocate more than the input can bound
// (a claimed count must not become a reserve() — the argc bomb), and
// anything they accept must survive a re-encode as a fixed point.

class ControlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

Mutation any_mutation(Rng& rng) { return static_cast<Mutation>(rng.uniform(4)); }

std::string random_text(Rng& rng, std::size_t max_len) {
  std::string out(rng.uniform(max_len + 1), '\0');
  for (char& ch : out) ch = static_cast<char>(rng());
  return out;
}

persist::Op random_op(Rng& rng) {
  persist::Op op;
  op.seq = rng();
  op.t_us = static_cast<double>(rng.uniform(1u << 30)) / 8.0;
  op.kind = static_cast<persist::OpKind>(rng.uniform(15));
  op.vip = Ipv4Address{static_cast<std::uint32_t>(rng())};
  op.dip = Ipv4Address{static_cast<std::uint32_t>(rng())};
  op.sw = static_cast<std::uint32_t>(rng());
  op.port = static_cast<std::uint16_t>(rng());
  op.flag = rng.uniform(2) == 1;
  op.engine = static_cast<std::uint8_t>(rng());
  op.aggregate = Ipv4Prefix{Ipv4Address{static_cast<std::uint32_t>(rng())},
                            static_cast<std::uint8_t>(rng.uniform(33))};
  for (std::size_t i = rng.uniform(6); i > 0; --i) op.addrs.push_back(static_cast<std::uint32_t>(rng()));
  for (std::size_t i = rng.uniform(4); i > 0; --i) op.weights.push_back(static_cast<std::uint32_t>(rng()));
  for (std::size_t i = rng.uniform(3); i > 0; --i) {
    VipDemand d;
    d.id = static_cast<VipId>(rng.uniform(1000));
    d.vip = Ipv4Address{static_cast<std::uint32_t>(rng())};
    d.total_gbps = static_cast<double>(rng.uniform(1000)) / 4.0;
    d.dip_count = rng.uniform(64);
    for (std::size_t k = rng.uniform(3); k > 0; --k) {
      d.ingress_gbps.emplace_back(static_cast<SwitchId>(rng.uniform(64)), 1.5);
    }
    for (std::size_t k = rng.uniform(3); k > 0; --k) {
      d.dip_tor_gbps.emplace_back(static_cast<SwitchId>(rng.uniform(64)), 2.5);
    }
    op.demands.push_back(std::move(d));
  }
  return op;
}

TEST_P(ControlFuzz, MutatedRequestsNeverBreakDecodeRequest) {
  Rng rng{GetParam()};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::string> argv;
    for (std::size_t i = rng.uniform(7); i > 0; --i) argv.push_back(random_text(rng, 20));
    const auto bytes = persist::encode_request(argv);
    const auto clean = persist::decode_request(bytes);
    ASSERT_TRUE(clean.has_value()) << "iter " << iter;
    ASSERT_EQ(*clean, argv) << "iter " << iter;

    auto mutated = bytes;
    mutate(mutated, any_mutation(rng), rng);
    std::optional<std::vector<std::string>> decoded;
    std::size_t largest = 0;
    {
      const LargestAllocation track;
      decoded = persist::decode_request(mutated);
      largest = track.bytes();
    }
    ASSERT_LE(largest, allocation_bound(mutated.size()))
        << "iter " << iter << ": decode_request allocated " << largest << " B for "
        << mutated.size() << " B of input";
    // The request encoding is canonical: a survivor IS its own encoding.
    if (decoded.has_value()) {
      ASSERT_EQ(persist::encode_request(*decoded), mutated) << "iter " << iter;
    }
  }
}

TEST_P(ControlFuzz, MutatedOpsNeverBreakDecodeOp) {
  Rng rng{GetParam()};
  for (int iter = 0; iter < 2000; ++iter) {
    const persist::Op op = random_op(rng);
    const auto bytes = persist::encode_op(op);
    const auto clean = persist::decode_op(bytes);
    ASSERT_TRUE(clean.has_value()) << "iter " << iter;
    ASSERT_EQ(*clean, op) << "iter " << iter;

    auto mutated = bytes;
    mutate(mutated, any_mutation(rng), rng);
    std::optional<persist::Op> decoded;
    std::size_t largest = 0;
    {
      const LargestAllocation track;
      decoded = persist::decode_op(mutated);
      largest = track.bytes();
    }
    ASSERT_LE(largest, allocation_bound(mutated.size()))
        << "iter " << iter << ": decode_op allocated " << largest << " B for " << mutated.size()
        << " B of input";
    // Flags and prefixes canonicalize, so the fixed point is one re-encode
    // away: encode(decode(encode(x))) == encode(x).
    if (decoded.has_value()) {
      const auto wire = persist::encode_op(*decoded);
      const auto again = persist::decode_op(wire);
      ASSERT_TRUE(again.has_value()) << "iter " << iter;
      ASSERT_EQ(persist::encode_op(*again), wire) << "iter " << iter;
    }
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::uint8_t chunk[4096];
    for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
      out.insert(out.end(), chunk, chunk + n);
    }
    std::fclose(f);
  }
  return out;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST_P(ControlFuzz, MutatedFilesNeverBreakReadFrames) {
  char tmpl[] = "/tmp/duet_fuzz_frames_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  ASSERT_NE(made, nullptr);
  const std::string dir = made;
  const std::string clean_path = dir + "/clean";
  const std::string mutated_path = dir + "/mutated";
  const std::string rewritten_path = dir + "/rewritten";
  Rng rng{GetParam()};
  for (int iter = 0; iter < 300; ++iter) {
    // A log of op records and odd-typed frames, written the way OpLog does.
    std::vector<persist::Frame> frames;
    for (std::size_t i = rng.uniform(6); i > 0; --i) {
      persist::Frame fr;
      fr.type = static_cast<std::uint8_t>(rng());
      fr.payload = rng.uniform(2) == 0 ? persist::encode_op(random_op(rng))
                                       : std::vector<std::uint8_t>(rng.uniform(40), 0x5a);
      frames.push_back(std::move(fr));
    }
    std::filesystem::remove(clean_path);
    {
      auto w = persist::FrameWriter::open(clean_path, persist::kOpLogMagic,
                                          persist::FsyncPolicy::kNone);
      ASSERT_TRUE(w.has_value());
      for (const auto& fr : frames) ASSERT_TRUE(w->append(fr.type, fr.payload));
    }
    const auto clean = persist::read_frames(clean_path, persist::kOpLogMagic);
    ASSERT_TRUE(clean.ok() && !clean.truncated_tail) << "iter " << iter;
    ASSERT_EQ(clean.frames.size(), frames.size()) << "iter " << iter;

    auto mutated = read_file(clean_path);
    mutate(mutated, any_mutation(rng), rng);
    write_file(mutated_path, mutated);
    persist::ReadFramesResult got;
    std::size_t largest = 0;
    {
      const LargestAllocation track;
      got = persist::read_frames(mutated_path, persist::kOpLogMagic);
      largest = track.bytes();
    }
    ASSERT_LE(largest, allocation_bound(mutated.size()))
        << "iter " << iter << ": read_frames allocated " << largest << " B for a "
        << mutated.size() << " B file";
    if (!got.ok()) continue;
    ASSERT_LE(got.valid_bytes, mutated.size()) << "iter " << iter;

    // What survived is a clean log: rewritten, it reads back identically,
    // whole, with no torn tail.
    std::filesystem::remove(rewritten_path);
    {
      auto w = persist::FrameWriter::open(rewritten_path, persist::kOpLogMagic,
                                          persist::FsyncPolicy::kNone);
      ASSERT_TRUE(w.has_value());
      for (const auto& fr : got.frames) ASSERT_TRUE(w->append(fr.type, fr.payload));
    }
    const auto again = persist::read_frames(rewritten_path, persist::kOpLogMagic);
    ASSERT_TRUE(again.ok() && !again.truncated_tail) << "iter " << iter;
    ASSERT_EQ(again.frames.size(), got.frames.size()) << "iter " << iter;
    for (std::size_t i = 0; i < got.frames.size(); ++i) {
      ASSERT_EQ(again.frames[i].type, got.frames[i].type) << "iter " << iter;
      ASSERT_EQ(again.frames[i].payload, got.frames[i].payload) << "iter " << iter;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlFuzz, ::testing::Values(9ULL, 2014ULL, 0xd0e7ULL));

// --- Smux flow-table consistency under churn -------------------------------------------

TEST(SmuxChurn, PinsAlwaysPointAtCurrentDips) {
  Rng rng{5};
  DuetConfig cfg;
  Smux smux{0, FlowHasher{5}, cfg};
  const Ipv4Address vip{100, 0, 0, 1};
  std::vector<Ipv4Address> dips{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                Ipv4Address(10, 0, 0, 3)};
  smux.set_vip(vip, dips);

  for (int op = 0; op < 1500; ++op) {
    const auto roll = rng.uniform(20);
    if (roll == 0 && dips.size() > 1) {
      const auto victim = dips[rng.uniform(dips.size())];
      smux.remove_dip(vip, victim);
      dips.erase(std::remove(dips.begin(), dips.end(), victim), dips.end());
    } else if (roll == 1 && dips.size() < 12) {
      const Ipv4Address fresh{(10u << 24) + 100u + static_cast<std::uint32_t>(op)};
      smux.add_dip(vip, fresh);
      dips.push_back(fresh);
    } else {
      Packet p{FiveTuple{Ipv4Address{static_cast<std::uint32_t>(rng())}, vip,
                         static_cast<std::uint16_t>(rng()), 80, IpProto::kTcp},
               64};
      ASSERT_TRUE(smux.process(p));
      EXPECT_NE(std::find(dips.begin(), dips.end(), p.outer().outer_dst), dips.end())
          << "op " << op << ": packet sent to a DIP not in the current set";
    }
  }
}

}  // namespace
}  // namespace duet
