// Durability battery for the per-site write-ahead log (src/storage):
// frame/record round trips, torn-tail vs corruption discrimination, and the
// crash-point fuzz — truncate a seeded run's log at every record boundary
// (and inside frames, and under byte corruption) and check recovery restores
// exactly the committed prefix or fails loudly. The reference is an
// independent committed-prefix projection, deliberately a different
// algorithm from storage::RecoverWal (no checkpoints, no CLRs, no undo).
// Sites discard their WAL below each checkpoint, so the seeded runs log
// through a HistoryLogDevice and the fuzz cuts its full history.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

#include "fault/fault_plan.h"
#include "gtm/gtm_log.h"
#include "history_log_device.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "sim/event_loop.h"
#include "site/local_dbms.h"
#include "storage/framing.h"
#include "storage/log_device.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;
using storage::CheckpointImage;
using storage::MemLogDevice;
using storage::RecoveredState;
using storage::WalRecord;
using storage::WalRecordType;
using storage::WalScan;

// ----------------------------------------------------------------------
// Frame / record encoding
// ----------------------------------------------------------------------

/// Bytewise CRC-32 (reflected IEEE polynomial, one bit at a time): the
/// reference storage::Crc32 and its table path must agree with.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WalEncodingTest, Crc32MatchesTheKnownTestVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);

  // Every length 0..1,100 at every start offset 0..15: covers the short
  // spans, the 16- and 64-byte blocks of the wide kernels, every tail
  // length after them, and misaligned starts.
  constexpr size_t kMaxLength = 1100;
  std::vector<uint8_t> buffer(16 + kMaxLength);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const uint8_t* at = buffer.data() + offset;
      const uint32_t expected = ReferenceCrc32(at, length);
      ASSERT_EQ(storage::Crc32(at, length), expected)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(storage::Crc32Tables(at, length), expected)
          << "offset " << offset << " length " << length;
    }
  }

  // One large random span, as a checkpoint frame is.
  std::vector<uint8_t> large(1 << 20);
  uint64_t state = 0x9E3779B97F4A7C15u;
  for (uint8_t& byte : large) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    byte = static_cast<uint8_t>(state >> 56);
  }
  const uint32_t expected = ReferenceCrc32(large.data(), large.size());
  EXPECT_EQ(storage::Crc32(large.data(), large.size()), expected);
  EXPECT_EQ(storage::Crc32Tables(large.data(), large.size()), expected);
}

// The carry-less-multiply kernel is chosen at run time; a CPU that has
// PCLMULQDQ and SSE4.1 (CPUID leaf 1, ECX bits 1 and 19) must take it, or
// the test above checks only the tables there.
TEST(WalEncodingTest, Crc32TakesTheCarrylessKernelWhereTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  ASSERT_TRUE(__get_cpuid(1, &eax, &ebx, &ecx, &edx));
  const bool has_clmul = (ecx & (1u << 1)) != 0 && (ecx & (1u << 19)) != 0;
  EXPECT_EQ(storage::Crc32UsesCarrylessMultiply(), has_clmul);
#else
  EXPECT_FALSE(storage::Crc32UsesCarrylessMultiply());
#endif
}

TEST(WalEncodingTest, AllRecordTypesRoundTrip) {
  MemLogDevice device;
  storage::WalWriter writer(&device);

  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  begin.txn = 7;
  begin.global = 3;
  begin.clock = 41;
  writer.Append(begin);

  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.txn = 7;
  write.item = 11;
  write.before = -2;
  write.value = 55;
  writer.Append(write);

  WalRecord clr;
  clr.type = WalRecordType::kClr;
  clr.txn = 7;
  clr.item = 11;
  clr.value = -2;
  writer.Append(clr);

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 7;
  commit.clock = 42;
  writer.Append(commit);

  WalRecord abort;
  abort.type = WalRecordType::kAbort;
  abort.txn = 9;
  writer.Append(abort);

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, static_cast<size_t>(device.Size()));
  EXPECT_EQ(scan.boundaries.size(), 5u);
  EXPECT_EQ(writer.records_written(), 5);
  EXPECT_EQ(writer.bytes_written(), device.Size());

  EXPECT_EQ(scan.records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(scan.records[0].txn, 7);
  EXPECT_EQ(scan.records[0].global, 3);
  EXPECT_EQ(scan.records[0].clock, 41);
  EXPECT_EQ(scan.records[1].type, WalRecordType::kWrite);
  EXPECT_EQ(scan.records[1].item, 11);
  EXPECT_EQ(scan.records[1].before, -2);
  EXPECT_EQ(scan.records[1].value, 55);
  EXPECT_EQ(scan.records[2].type, WalRecordType::kClr);
  EXPECT_EQ(scan.records[2].value, -2);
  EXPECT_EQ(scan.records[3].type, WalRecordType::kCommit);
  EXPECT_EQ(scan.records[3].clock, 42);
  EXPECT_EQ(scan.records[4].type, WalRecordType::kAbort);
  EXPECT_EQ(scan.records[4].txn, 9);
}

// ----------------------------------------------------------------------
// Codec cases both logs share: every record type round-trips with fields
// that are not the defaults, and the readers reject every malformed
// payload built from the well-formed ones.
// ----------------------------------------------------------------------

std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  return {frame.begin() + storage::kFrameHeaderSize, frame.end()};
}

using NamedPayloads =
    std::vector<std::pair<std::string, std::vector<uint8_t>>>;

/// Adds every proper prefix of `payload` and `payload` with one trailing
/// byte to `cases`, each named after `name`.
void AddCutsAndTrailingByte(const std::string& name,
                            const std::vector<uint8_t>& payload,
                            NamedPayloads* cases) {
  for (size_t n = 0; n < payload.size(); ++n) {
    cases->emplace_back(
        name + "cut to " + std::to_string(n) + " bytes",
        std::vector<uint8_t>(payload.begin(), payload.begin() + n));
  }
  std::vector<uint8_t> longer = payload;
  longer.push_back(0);
  cases->emplace_back(name + "with a trailing byte", longer);
}

/// Named malformed payloads built from the well-formed `payloads`, one of
/// each record type: every proper prefix, one trailing byte, and a type
/// byte of 0 or one past `last_type`, alone or in place of the real one.
NamedPayloads MalformedPayloads(
    const std::vector<std::vector<uint8_t>>& payloads, uint8_t last_type) {
  NamedPayloads cases;
  for (uint8_t type : {uint8_t{0}, static_cast<uint8_t>(last_type + 1)}) {
    std::string name = "lone type ";
    cases.emplace_back(name.append(std::to_string(type)),
                       std::vector<uint8_t>{type});
  }
  for (const std::vector<uint8_t>& payload : payloads) {
    std::string name = "type ";
    name.append(std::to_string(payload.at(0))).append(" payload ");
    AddCutsAndTrailingByte(name, payload, &cases);
    for (uint8_t type : {uint8_t{0}, static_cast<uint8_t>(last_type + 1)}) {
      std::vector<uint8_t> retyped = payload;
      retyped[0] = type;
      cases.emplace_back(name + "retyped " + std::to_string(type), retyped);
    }
  }
  return cases;
}

/// `payload` with the u32 count at byte `at` one past the bytes after it.
std::vector<uint8_t> WithOverlongCount(std::vector<uint8_t> payload,
                                       size_t at) {
  const size_t left = payload.size() - at - 4;
  storage::StoreU32(payload.data() + at, static_cast<uint32_t>(left + 1));
  return payload;
}

/// One WAL record of each type; a checkpoint with every table filled.
std::vector<WalRecord> EveryWalRecordType() {
  std::vector<WalRecord> records(6);
  records[0].type = WalRecordType::kBegin;
  records[0].txn = 7;
  records[0].global = 3;
  records[0].clock = 41;
  records[1].type = WalRecordType::kWrite;
  records[1].txn = 7;
  records[1].item = 11;
  records[1].before = -2;
  records[1].value = 55;
  records[1].clock = 43;
  records[2].type = WalRecordType::kClr;
  records[2].txn = 7;
  records[2].item = 11;
  records[2].value = -2;
  records[3].type = WalRecordType::kCommit;
  records[3].txn = 7;
  records[3].clock = 42;
  records[4].type = WalRecordType::kAbort;
  records[4].txn = 9;
  WalRecord& checkpoint = records[5];
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.checkpoint.clock = 99;
  checkpoint.checkpoint.items = {{1, 10, 7}, {2, 20, -1}};
  checkpoint.checkpoint.committed = {4, 6};
  checkpoint.checkpoint.mv_initial = {{1, 0}};
  checkpoint.checkpoint.mv_latest = {{1, 12, 6, 10}};
  checkpoint.checkpoint.active.push_back({5, 2, {{2, 15}, {2, 18}}});
  return records;
}

std::string Dump(const WalRecord& r) {
  std::ostringstream out;
  out << "type=" << static_cast<int>(r.type) << " txn=" << r.txn
      << " global=" << r.global << " clock=" << r.clock
      << " item=" << r.item << " before=" << r.before
      << " value=" << r.value << " image_clock=" << r.checkpoint.clock
      << " committed=";
  for (int64_t txn : r.checkpoint.committed) out << txn << ",";
  out << " items=";
  for (const CheckpointImage::Item& i : r.checkpoint.items) {
    out << i.item << ":" << i.value << ":" << i.last_committed_writer << ",";
  }
  out << " mv_initial=";
  for (const auto& [item, value] : r.checkpoint.mv_initial) {
    out << item << ":" << value << ",";
  }
  out << " mv_latest=";
  for (const CheckpointImage::MvVersion& v : r.checkpoint.mv_latest) {
    out << v.item << ":" << v.wts << ":" << v.writer << ":" << v.value << ",";
  }
  out << " active=";
  for (const CheckpointImage::ActiveTxn& txn : r.checkpoint.active) {
    out << txn.txn << ":" << txn.global << "[";
    for (const auto& [item, before] : txn.undo) {
      out << item << ":" << before << ",";
    }
    out << "]";
  }
  return out.str();
}

TEST(WalEncodingTest, EveryFieldOfEveryRecordTypeRoundTrips) {
  const std::vector<WalRecord> records = EveryWalRecordType();
  std::vector<uint8_t> image;
  for (const WalRecord& record : records) {
    const std::vector<uint8_t> frame = EncodeWalRecord(record);
    image.insert(image.end(), frame.begin(), frame.end());
  }
  WalScan scan;
  ASSERT_TRUE(ReadWal(MemLogDevice(image), &scan).ok());
  ASSERT_EQ(scan.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(Dump(scan.records[i]), Dump(records[i]));
  }
}

/// True when ReadWal refuses a device holding `payload` in one intact
/// frame.
bool WalRejects(const std::vector<uint8_t>& payload) {
  auto encode = [&payload](storage::ByteWriter& out) {
    out.Bytes(payload.data(), payload.size());
  };
  WalScan scan;
  return !ReadWal(MemLogDevice(storage::FrameEncoded(payload.size(), encode)),
                  &scan)
              .ok();
}

TEST(WalEncodingTest, RejectsEveryMalformedPayload) {
  std::vector<std::vector<uint8_t>> payloads;
  for (const WalRecord& record : EveryWalRecordType()) {
    payloads.push_back(PayloadOf(EncodeWalRecord(record)));
    ASSERT_FALSE(WalRejects(payloads.back()));
  }
  auto cases = MalformedPayloads(
      payloads, static_cast<uint8_t>(WalRecordType::kCheckpoint));
  // The checkpoint's first count (committed, after the type and clock) and
  // its last (the undo list of the last active transaction).
  const std::vector<uint8_t>& checkpoint = payloads.back();
  cases.emplace_back("overlong committed count",
                     WithOverlongCount(checkpoint, 9));
  cases.emplace_back("overlong undo count",
                     WithOverlongCount(checkpoint, checkpoint.size() - 36));
  for (const auto& [name, payload] : cases) {
    EXPECT_TRUE(WalRejects(payload)) << name;
  }
}

/// One GTM log record of each type, every field the type encodes set to a
/// value that is not its default; the checkpoint fills every table.
std::vector<gtm::GtmLogRecord> EveryGtmLogRecordType() {
  using gtm::GtmLogRecordType;
  std::vector<gtm::GtmLogRecord> records;
  auto add = [&records](GtmLogRecordType type) -> gtm::GtmLogRecord& {
    records.emplace_back();
    records.back().type = type;
    return records.back();
  };
  gtm::GtmLogRecord* r = &add(GtmLogRecordType::kSubmit);
  r->job = 4;
  r->time = 1234;
  r = &add(GtmLogRecordType::kAttemptStart);
  r->attempt = 8;
  r->job = 4;
  r->index = 2;
  r = &add(GtmLogRecordType::kBeginSite);
  r->attempt = 8;
  r->site = 1;
  r->sub = 77;
  r = &add(GtmLogRecordType::kRead);
  r->attempt = 8;
  r->site = 2;
  r->item = 13;
  r->value = -5;
  r = &add(GtmLogRecordType::kEnqueue);
  r->op = gtm::QueueOp::Init(GlobalTxnId(8), {SiteId(0), SiteId(2)});
  r = &add(GtmLogRecordType::kAbortCleanup);
  r->attempt = 9;
  r = &add(GtmLogRecordType::kAttemptFail);
  r->attempt = 9;
  r->code = 3;
  r = &add(GtmLogRecordType::kCommitStart);
  r->attempt = 8;
  r = &add(GtmLogRecordType::kCommitSite);
  r->attempt = 8;
  r->index = 1;
  r = &add(GtmLogRecordType::kFinish);
  r->job = 4;
  r->code = 2;
  r->index = 3;
  add(GtmLogRecordType::kPark).job = 5;
  add(GtmLogRecordType::kUnpark).job = 6;
  add(GtmLogRecordType::kSiteDown).site = 2;
  add(GtmLogRecordType::kSiteUp).site = 3;

  gtm::GtmCheckpoint& cp = add(GtmLogRecordType::kCheckpoint).checkpoint;
  cp.next_txn_id = 101;
  cp.next_attempt_id = 102;
  cp.next_job_id = 103;
  int64_t n = 1;
  for (int64_t* stat :
       {&cp.gtm1_stats.submitted, &cp.gtm1_stats.committed,
        &cp.gtm1_stats.failed, &cp.gtm1_stats.attempts,
        &cp.gtm1_stats.aborted_attempts, &cp.gtm1_stats.scheme_aborts,
        &cp.gtm1_stats.timeouts, &cp.gtm1_stats.partial_commits,
        &cp.gtm1_stats.site_down_aborts, &cp.gtm1_stats.parked,
        &cp.gtm1_stats.unparked, &cp.gtm1_stats.park_timeouts,
        &cp.gtm1_stats.fast_path_attempts, &cp.gtm2.stats.processed_ops,
        &cp.gtm2.stats.wait_additions, &cp.gtm2.stats.ser_wait_additions,
        &cp.gtm2.stats.cond_evaluations, &cp.gtm2.stats.failed_rescan_steps,
        &cp.gtm2.stats.scheme_aborts}) {
    *stat = 10 * n++;
  }
  cp.jobs.push_back({4, 1234, 2, 8, false});
  cp.jobs.push_back({5, 1300, 1, -1, true});
  gtm::GtmCheckpoint::AttemptImage attempt;
  attempt.id = 8;
  attempt.job = 4;
  attempt.committing = true;
  attempt.commit_index = 1;
  attempt.subs = {{0, 70}, {2, 77}};
  attempt.reads = {{0, 3, 30}, {2, 13, -5}};
  cp.attempts.push_back(attempt);
  cp.quarantined = {1, 3};
  cp.gtm2.wait.push_back(gtm::QueueOp::Ser(GlobalTxnId(8), SiteId(2)));
  cp.gtm2.wait.push_back(
      gtm::QueueOp::Init(GlobalTxnId(11), {SiteId(1), SiteId(3)}));
  cp.gtm2.dead_txns = {6, 9};
  cp.gtm2.scheme_steps = 4321;
  cp.gtm2.scheme_state = {1, 0, 255, 7, 42};
  return records;
}

std::string Dump(const gtm::QueueOp& op) {
  std::ostringstream out;
  out << op.ToString() << "/" << op.site.value();
  for (SiteId site : op.sites) out << "," << site.value();
  return out.str();
}

std::string Dump(const gtm::GtmLogRecord& r) {
  std::ostringstream out;
  out << "type=" << static_cast<int>(r.type) << " job=" << r.job
      << " attempt=" << r.attempt << " site=" << r.site << " sub=" << r.sub
      << " item=" << r.item << " value=" << r.value << " index=" << r.index
      << " code=" << static_cast<int>(r.code) << " time=" << r.time
      << " op=" << Dump(r.op);
  const gtm::GtmCheckpoint& cp = r.checkpoint;
  out << " next=" << cp.next_txn_id << ":" << cp.next_attempt_id << ":"
      << cp.next_job_id;
  const gtm::Gtm1Stats& s = cp.gtm1_stats;
  out << " gtm1=" << s.submitted << "," << s.committed << "," << s.failed
      << "," << s.attempts << "," << s.aborted_attempts << ","
      << s.scheme_aborts << "," << s.timeouts << "," << s.partial_commits
      << "," << s.site_down_aborts << "," << s.parked << "," << s.unparked
      << "," << s.park_timeouts << "," << s.fast_path_attempts;
  out << " jobs=";
  for (const gtm::GtmCheckpoint::JobImage& job : cp.jobs) {
    out << job.id << ":" << job.submit_time << ":" << job.attempts << ":"
        << job.current_attempt << ":" << job.parked << ",";
  }
  out << " attempts=";
  for (const gtm::GtmCheckpoint::AttemptImage& a : cp.attempts) {
    out << a.id << ":" << a.job << ":" << a.committing << ":"
        << a.commit_index << "[";
    for (const auto& [site, sub] : a.subs) out << site << ":" << sub << ",";
    out << "][";
    for (const auto& read : a.reads) {
      out << read[0] << ":" << read[1] << ":" << read[2] << ",";
    }
    out << "],";
  }
  out << " quarantined=";
  for (int64_t site : cp.quarantined) out << site << ",";
  out << " wait=";
  for (const gtm::QueueOp& op : cp.gtm2.wait) out << Dump(op) << ";";
  out << " dead=";
  for (int64_t txn : cp.gtm2.dead_txns) out << txn << ",";
  const gtm::Gtm2Stats& g = cp.gtm2.stats;
  out << " gtm2=" << g.processed_ops << "," << g.wait_additions << ","
      << g.ser_wait_additions << "," << g.cond_evaluations << ","
      << g.failed_rescan_steps << "," << g.scheme_aborts
      << " steps=" << cp.gtm2.scheme_steps << " state=";
  for (uint8_t byte : cp.gtm2.scheme_state) out << int{byte} << ",";
  return out.str();
}

TEST(GtmLogEncodingTest, AllRecordTypesRoundTrip) {
  const std::vector<gtm::GtmLogRecord> records = EveryGtmLogRecordType();
  ASSERT_EQ(records.size(),
            static_cast<size_t>(gtm::GtmLogRecordType::kCheckpoint));
  MemLogDevice device;
  for (const gtm::GtmLogRecord& record : records) {
    const std::vector<uint8_t> frame = gtm::EncodeGtmLogRecord(record);
    const std::vector<uint8_t> payload = PayloadOf(frame);
    gtm::GtmLogRecord decoded;
    ASSERT_TRUE(
        gtm::DecodeGtmLogPayload(payload.data(), payload.size(), &decoded))
        << "record type " << static_cast<int>(record.type);
    EXPECT_EQ(Dump(decoded), Dump(record));
    ASSERT_TRUE(device.Append(frame.data(), frame.size()).ok());
  }
  gtm::GtmLogScan scan;
  ASSERT_TRUE(gtm::ReadGtmLog(device, &scan).ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, static_cast<size_t>(device.Size()));
  ASSERT_EQ(scan.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(Dump(scan.records[i]), Dump(records[i]));
  }
}

bool GtmLogRejects(const std::vector<uint8_t>& payload) {
  gtm::GtmLogRecord record;
  return !gtm::DecodeGtmLogPayload(payload.data(), payload.size(), &record);
}

TEST(GtmLogEncodingTest, RejectsEveryMalformedPayload) {
  using gtm::GtmLogRecordType;
  std::vector<gtm::GtmLogRecord> records = EveryGtmLogRecordType();
  std::vector<std::vector<uint8_t>> payloads;
  for (const gtm::GtmLogRecord& record : records) {
    payloads.push_back(PayloadOf(gtm::EncodeGtmLogRecord(record)));
    ASSERT_FALSE(GtmLogRejects(payloads.back()));
  }
  auto cases = MalformedPayloads(
      payloads, static_cast<uint8_t>(GtmLogRecordType::kCheckpoint));

  // A QueueOpKind past kFin, in an enqueue and in a checkpoint's WAIT.
  const auto past_fin = static_cast<gtm::QueueOpKind>(
      static_cast<int>(gtm::QueueOpKind::kFin) + 1);
  gtm::GtmLogRecord enqueue = records[4];
  ASSERT_EQ(enqueue.type, GtmLogRecordType::kEnqueue);
  enqueue.op.kind = past_fin;
  cases.emplace_back("enqueue of a kind past kFin",
                     PayloadOf(gtm::EncodeGtmLogRecord(enqueue)));
  gtm::GtmLogRecord checkpoint = records.back();
  checkpoint.checkpoint.gtm2.wait.back().kind = past_fin;
  cases.emplace_back("WAIT op of a kind past kFin",
                     PayloadOf(gtm::EncodeGtmLogRecord(checkpoint)));

  // Counts past the bytes left: the enqueue's site list (after the type,
  // kind, txn and site), the checkpoint's jobs (after the type, three ids
  // and thirteen GTM1 counters) and its scheme blob (the last field).
  cases.emplace_back("overlong site count",
                     WithOverlongCount(payloads[4], 1 + 1 + 8 + 8));
  const std::vector<uint8_t>& image = payloads.back();
  cases.emplace_back("overlong job count",
                     WithOverlongCount(image, 1 + 3 * 8 + 13 * 8));
  const size_t blob = records.back().checkpoint.gtm2.scheme_state.size();
  cases.emplace_back("overlong scheme blob",
                     WithOverlongCount(image, image.size() - blob - 4));
  for (const auto& [name, payload] : cases) {
    EXPECT_TRUE(GtmLogRejects(payload)) << name;
  }
}

// ----------------------------------------------------------------------
// Scheme DS images: each of Schemes 0-3 reads back the image it wrote
// mid-run, byte for byte, and refuses every malformed one.
// ----------------------------------------------------------------------

/// The largest scheme image the GTM checkpoints of a durable `kind` run
/// hold: a real DS with several global transactions in flight.
std::vector<uint8_t> MidRunSchemeImage(SchemeKind kind) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      kind);
  config.seed = 23;
  auto device = std::make_shared<HistoryLogDevice>();
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 16;
  config.gtm.wal_device = device;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  RunDriver(&system, driver, 23);
  gtm::GtmLogScan scan;
  EXPECT_TRUE(gtm::ReadGtmLog(MemLogDevice(device->history()), &scan).ok());
  std::vector<uint8_t> largest;
  for (const gtm::GtmLogRecord& record : scan.records) {
    const std::vector<uint8_t>& state = record.checkpoint.gtm2.scheme_state;
    if (record.type == gtm::GtmLogRecordType::kCheckpoint &&
        state.size() > largest.size()) {
      largest = state;
    }
  }
  return largest;
}

/// The u32 at byte `at` of `image`.
uint32_t CountAt(const std::vector<uint8_t>& image, size_t at) {
  storage::Cursor in(image.data() + at, image.size() - at);
  return in.U32();
}

/// The byte just past the table at byte `at` of `image`: a count, then
/// that many rows of an id, a count and that many ids.
size_t SkipIdRows(const std::vector<uint8_t>& image, size_t at) {
  size_t end = at + 4;
  for (uint32_t rows = CountAt(image, at); rows > 0; --rows) {
    end += 8 + 4 + 8 * size_t{CountAt(image, end + 8)};
  }
  return end;
}

TEST(SchemeImageTest, MidRunImagesRoundTripAndBadOnesAreRefused) {
  for (SchemeKind kind : {SchemeKind::kScheme0, SchemeKind::kScheme1,
                          SchemeKind::kScheme2, SchemeKind::kScheme3}) {
    SCOPED_TRACE(gtm::SchemeKindName(kind));
    const std::vector<uint8_t> image = MidRunSchemeImage(kind);
    ASSERT_GT(image.size(), 64u);
    std::unique_ptr<gtm::Scheme> scheme = gtm::MakeScheme(kind);
    ASSERT_TRUE(scheme->DecodeState(image.data(), image.size()));
    std::vector<uint8_t> again;
    scheme->EncodeState(&again);
    EXPECT_EQ(again, image);

    NamedPayloads cases;
    AddCutsAndTrailingByte("image ", image, &cases);
    // Schemes 1 and 3 lead with their mode byte (mark_all / pin_acks): an
    // image of the other mode, or of no mode, is not theirs.
    const bool has_mode = kind == SchemeKind::kScheme1 ||
                          kind == SchemeKind::kScheme3;
    if (has_mode) {
      for (uint8_t mode : {static_cast<uint8_t>(image[0] ^ 1), uint8_t{2}}) {
        std::vector<uint8_t> remoded = image;
        remoded[0] = mode;
        cases.emplace_back("mode byte " + std::to_string(mode), remoded);
      }
    }
    // Counts: the first table's, its first row's, and the second table's
    // (Scheme 2's dependencies); where the second table is of id rows too
    // (Scheme 1's site states, Scheme 3's site lists), its first row's.
    const size_t first = has_mode ? 1 : 0;
    ASSERT_GT(CountAt(image, first), 0u);
    const size_t second = SkipIdRows(image, first);
    std::vector<size_t> counts = {first, first + 12};
    if (kind != SchemeKind::kScheme0) counts.push_back(second);
    if (has_mode) {
      ASSERT_GT(CountAt(image, second), 0u);
      counts.push_back(second + 12);
    }
    for (size_t at : counts) {
      const std::string where = " count at byte " + std::to_string(at);
      cases.emplace_back("overlong" + where, WithOverlongCount(image, at));
      std::vector<uint8_t> huge = image;
      storage::StoreU32(huge.data() + at, 0xFFFFFFFFu);
      cases.emplace_back("2^32-1" + where, huge);
    }
    for (const auto& [name, payload] : cases) {
      std::unique_ptr<gtm::Scheme> fresh = gtm::MakeScheme(kind);
      EXPECT_FALSE(fresh->DecodeState(payload.data(), payload.size()))
          << name;
    }
  }
}

TEST(WalEncodingTest, CheckpointImageRoundTrips) {
  MemLogDevice device;
  storage::WalWriter writer(&device);

  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  rec.checkpoint.clock = 99;
  rec.checkpoint.items.push_back({1, 10, 7});
  rec.checkpoint.items.push_back({2, 20, -1});
  rec.checkpoint.mv_initial.emplace_back(1, 0);
  CheckpointImage::ActiveTxn active;
  active.txn = 5;
  active.global = 2;
  active.undo.emplace_back(2, 15);
  active.undo.emplace_back(2, 18);
  rec.checkpoint.active.push_back(active);
  writer.Append(rec);
  EXPECT_EQ(writer.records_since_checkpoint(), 0)
      << "a checkpoint must reset the interval counter";

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  const CheckpointImage& image = scan.records[0].checkpoint;
  EXPECT_EQ(image.clock, 99);
  ASSERT_EQ(image.items.size(), 2u);
  EXPECT_EQ(image.items[0].item, 1);
  EXPECT_EQ(image.items[0].value, 10);
  EXPECT_EQ(image.items[0].last_committed_writer, 7);
  EXPECT_EQ(image.items[1].last_committed_writer, -1);
  ASSERT_EQ(image.mv_initial.size(), 1u);
  ASSERT_EQ(image.active.size(), 1u);
  EXPECT_EQ(image.active[0].txn, 5);
  ASSERT_EQ(image.active[0].undo.size(), 2u);
  EXPECT_EQ(image.active[0].undo[1].second, 18);
}

// ----------------------------------------------------------------------
// Fixed-width tables: a checkpoint's tables of int64 fields must encode as
// their fields, one after another in declaration order, however the
// encoder copies them, and the reader must refuse what does not fit.
// ----------------------------------------------------------------------

/// A checkpoint's payload written one field at a time, independently of
/// the field lists: the bytes the encoder must produce.
std::vector<uint8_t> PerFieldCheckpointPayload(const CheckpointImage& image) {
  std::vector<uint8_t> out;
  auto count = [&out](size_t n) {
    storage::PutU32(&out, static_cast<uint32_t>(n));
  };
  storage::PutU8(&out, static_cast<uint8_t>(WalRecordType::kCheckpoint));
  storage::PutI64(&out, image.clock);
  count(image.committed.size());
  for (int64_t txn : image.committed) storage::PutI64(&out, txn);
  count(image.items.size());
  for (const CheckpointImage::Item& i : image.items) {
    for (int64_t v : {i.item, i.value, i.last_committed_writer}) {
      storage::PutI64(&out, v);
    }
  }
  count(image.mv_initial.size());
  for (const auto& [item, value] : image.mv_initial) {
    storage::PutI64(&out, item);
    storage::PutI64(&out, value);
  }
  count(image.mv_latest.size());
  for (const CheckpointImage::MvVersion& v : image.mv_latest) {
    for (int64_t f : {v.item, v.wts, v.writer, v.value}) {
      storage::PutI64(&out, f);
    }
  }
  count(image.active.size());
  for (const CheckpointImage::ActiveTxn& txn : image.active) {
    storage::PutI64(&out, txn.txn);
    storage::PutI64(&out, txn.global);
    count(txn.undo.size());
    for (const auto& [item, before] : txn.undo) {
      storage::PutI64(&out, item);
      storage::PutI64(&out, before);
    }
  }
  return out;
}

/// The checkpoint tables that hold only int64 fields, by name.
enum class Table { kCommitted, kItems, kMvInitial, kMvLatest };
constexpr Table kTables[] = {Table::kCommitted, Table::kItems,
                             Table::kMvInitial, Table::kMvLatest};

const char* TableName(Table table) {
  switch (table) {
    case Table::kCommitted:
      return "committed";
    case Table::kItems:
      return "items";
    case Table::kMvInitial:
      return "mv_initial";
    case Table::kMvLatest:
      return "mv_latest";
  }
  return "?";
}

/// Fills `table` of `image` with `rows` rows whose fields use all eight
/// bytes, negative values included.
void FillTable(CheckpointImage* image, Table table, size_t rows,
               uint64_t* state) {
  auto next = [state]() {
    *state = *state * 6364136223846793005u + 1442695040888963407u;
    return static_cast<int64_t>(*state);
  };
  for (size_t r = 0; r < rows; ++r) {
    switch (table) {
      case Table::kCommitted:
        image->committed.push_back(next());
        break;
      case Table::kItems:
        image->items.push_back({next(), next(), next()});
        break;
      case Table::kMvInitial:
        image->mv_initial.push_back({next(), next()});
        break;
      case Table::kMvLatest:
        image->mv_latest.push_back({next(), next(), next(), next()});
        break;
    }
  }
}

WalRecord CheckpointRecord(CheckpointImage image) {
  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  rec.checkpoint = std::move(image);
  return rec;
}

TEST(WalEncodingTest, FixedWidthTablesEncodeAsTheirFieldsInOrder) {
  uint64_t state = 17;
  for (size_t rows : {0u, 1u, 2u, 7u, 1000u}) {
    std::vector<std::pair<std::string, CheckpointImage>> images;
    CheckpointImage full;
    full.clock = -3;
    for (Table table : kTables) {
      CheckpointImage alone;
      FillTable(&alone, table, rows, &state);
      images.emplace_back(TableName(table), alone);
      FillTable(&full, table, rows, &state);
    }
    full.active.push_back({5, 2, {{2, 15}, {-2, 18}}});
    full.active.push_back({6, 3, {}});
    images.emplace_back("full image", full);
    for (const auto& [name, image] : images) {
      const WalRecord rec = CheckpointRecord(image);
      const std::vector<uint8_t> frame = EncodeWalRecord(rec);
      EXPECT_EQ(PayloadOf(frame), PerFieldCheckpointPayload(image))
          << name << " with " << rows << " rows";
      WalScan scan;
      ASSERT_TRUE(ReadWal(MemLogDevice(frame), &scan).ok()) << name;
      ASSERT_EQ(scan.records.size(), 1u);
      EXPECT_EQ(Dump(scan.records[0]), Dump(rec))
          << name << " with " << rows << " rows";
    }
  }
}

TEST(WalEncodingTest, FixedWidthTablesRefuseTruncationAndOversizedCounts) {
  uint64_t state = 29;
  constexpr size_t kRows = 50;
  for (size_t t = 0; t < std::size(kTables); ++t) {
    CheckpointImage image;
    FillTable(&image, kTables[t], kRows, &state);
    const std::vector<uint8_t> payload =
        PayloadOf(EncodeWalRecord(CheckpointRecord(image)));
    ASSERT_FALSE(WalRejects(payload)) << TableName(kTables[t]);
    // The tables before this one are empty: type, clock, then one u32
    // count per table.
    const size_t at = 1 + 8 + 4 * t;
    const size_t left = payload.size() - at - 4;
    const size_t row_bytes = (left - 4 * (std::size(kTables) - t)) / kRows;
    std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
    for (size_t n : {at + 4, at + 4 + row_bytes / 2, at + 4 + row_bytes,
                     at + 4 + kRows * row_bytes - 1, payload.size() - 1}) {
      cases.emplace_back("cut to " + std::to_string(n) + " bytes",
                         std::vector<uint8_t>(payload.begin(),
                                              payload.begin() + n));
    }
    for (uint64_t count :
         {uint64_t{kRows + 1}, uint64_t{left / row_bytes + 1},
          uint64_t{left}, uint64_t{left + 1}, uint64_t{0xFFFFFFFFu}}) {
      std::vector<uint8_t> bad = payload;
      storage::StoreU32(bad.data() + at, static_cast<uint32_t>(count));
      cases.emplace_back("count " + std::to_string(count), bad);
    }
    for (const auto& [name, bad] : cases) {
      EXPECT_TRUE(WalRejects(bad)) << TableName(kTables[t]) << ": " << name;
    }
  }
}

TEST(WalEncodingTest, TornTailIsFlaggedAndIgnored) {
  MemLogDevice device;
  storage::WalWriter writer(&device);
  WalRecord rec;
  rec.type = WalRecordType::kBegin;
  rec.txn = 1;
  writer.Append(rec);
  int64_t boundary = device.Size();

  // A crash mid-append: only half of the next frame reached the device.
  std::vector<uint8_t> next = EncodeWalRecord(rec);
  ASSERT_TRUE(device.Append(next.data(), next.size() / 2).ok());

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, static_cast<size_t>(boundary));
}

// The frame writer reuses one buffer that only grows and is never
// zero-filled: frames of any size, in any order, must still be exactly the
// bytes FrameEncoded builds afresh.
TEST(WalEncodingTest, FrameWriterFramesMatchFreshFramesAcrossSizes) {
  MemLogDevice device;
  storage::FrameWriter writer(&device);
  std::vector<uint8_t> expected;
  uint8_t fill = 1;
  for (size_t size : {1000u, 10u, 0u, 5000u, 3u, 4999u, 70'000u, 1u}) {
    std::vector<uint8_t> payload(size, fill++);
    auto encode = [&payload](storage::ByteWriter& out) {
      out.Bytes(payload.data(), payload.size());
    };
    const std::vector<uint8_t> fresh =
        storage::FrameEncoded(payload.size(), encode);
    const std::span<const uint8_t> frame =
        writer.AppendEncoded(payload.size(), encode, /*is_checkpoint=*/false);
    EXPECT_TRUE(std::equal(frame.begin(), frame.end(), fresh.begin(),
                           fresh.end()))
        << "frame of a " << size << "-byte payload";
    expected.insert(expected.end(), fresh.begin(), fresh.end());
  }
  EXPECT_EQ(device.Image(), expected);
}

// A shipped GTM frame is checked in place: one complete frame, its stated
// length, a matching CRC and nothing after it.
TEST(WalEncodingTest, ReadSingleFrameAcceptsExactlyOneIntactFrame) {
  WalRecord rec;
  rec.type = WalRecordType::kWrite;
  rec.txn = 3;
  rec.item = 4;
  rec.value = 9;
  const std::vector<uint8_t> frame = EncodeWalRecord(rec);
  std::span<const uint8_t> payload;
  ASSERT_TRUE(storage::ReadSingleFrame(frame, &payload));
  EXPECT_EQ(payload.data(), frame.data() + storage::kFrameHeaderSize);
  EXPECT_EQ(payload.size(), frame.size() - storage::kFrameHeaderSize);

  const std::vector<uint8_t> empty =
      storage::FrameEncoded(0, [](storage::ByteWriter&) {});
  ASSERT_TRUE(storage::ReadSingleFrame(empty, &payload));
  EXPECT_TRUE(payload.empty());

  auto rejects = [&payload](std::vector<uint8_t> bytes) {
    return !storage::ReadSingleFrame(bytes, &payload);
  };
  EXPECT_TRUE(rejects({}));
  EXPECT_TRUE(rejects({frame.begin(), frame.begin() + 5}));  // In the header.
  EXPECT_TRUE(rejects({frame.begin(), frame.end() - 1}));    // Torn.
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_TRUE(rejects(longer));
  std::vector<uint8_t> two = frame;
  two.insert(two.end(), frame.begin(), frame.end());
  EXPECT_TRUE(rejects(two));
  for (size_t at : {size_t{0}, size_t{4}, storage::kFrameHeaderSize,
                    frame.size() - 1}) {
    std::vector<uint8_t> flipped = frame;
    flipped[at] ^= 0x01;
    EXPECT_TRUE(rejects(flipped)) << "byte " << at << " flipped";
  }
}

TEST(WalEncodingTest, CorruptedCompleteFrameFailsLoudly) {
  MemLogDevice device;
  storage::WalWriter writer(&device);
  WalRecord rec;
  rec.type = WalRecordType::kWrite;
  rec.txn = 1;
  rec.item = 4;
  rec.value = 9;
  writer.Append(rec);
  writer.Append(rec);

  // Flip one payload byte of the first frame: its CRC no longer matches,
  // and since the frame is complete this is corruption, not a torn tail.
  device.CorruptByte(10, 0x01);
  WalScan scan;
  EXPECT_FALSE(ReadWal(device, &scan).ok());

  // Same for the CRC field itself.
  MemLogDevice crc_hit(device.Image());
  RecoveredState state;
  EXPECT_FALSE(RecoverWal(crc_hit, false, &state).ok());
}

TEST(WalRecoveryTest, EmptyLogRecoversEmptyState) {
  MemLogDevice device;
  RecoveredState state;
  ASSERT_TRUE(RecoverWal(device, false, &state).ok());
  EXPECT_TRUE(state.store.empty());
  EXPECT_EQ(state.scanned_records, 0);
  EXPECT_EQ(state.clock, 0);
}

// ----------------------------------------------------------------------
// The committed-prefix projection oracle
// ----------------------------------------------------------------------

/// Independent reference recovery: a transaction's writes count iff its
/// commit record is inside the prefix; apply them in log order. No
/// checkpoint is consulted and no undo is performed, so agreement with
/// RecoverWal exercises the checkpoint/undo machinery end to end.
std::unordered_map<int64_t, int64_t> CommittedProjection(
    const std::vector<WalRecord>& prefix) {
  std::unordered_set<int64_t> committed;
  for (const WalRecord& rec : prefix) {
    if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn);
  }
  std::unordered_map<int64_t, int64_t> store;
  for (const WalRecord& rec : prefix) {
    if (rec.type == WalRecordType::kWrite && committed.contains(rec.txn)) {
      store[rec.item] = rec.value;
    }
  }
  return store;
}

/// Every item mentioned anywhere in the log — the universe over which
/// recovered stores are compared by value (absent items read as 0; recovery
/// may materialize explicit zeros a crash-free store would not).
std::vector<int64_t> ItemUniverse(const std::vector<WalRecord>& records) {
  std::unordered_set<int64_t> items;
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecordType::kWrite ||
        rec.type == WalRecordType::kClr) {
      items.insert(rec.item);
    }
    for (const CheckpointImage::Item& item : rec.checkpoint.items) {
      items.insert(item.item);
    }
  }
  return {items.begin(), items.end()};
}

int64_t ValueOf(const std::unordered_map<int64_t, int64_t>& store,
                int64_t item) {
  auto it = store.find(item);
  return it == store.end() ? 0 : it->second;
}

/// One finished seeded durable run (sim engine) plus site 0's log.
struct DurableRun {
  std::shared_ptr<HistoryLogDevice> device;  // Site 0's WAL.
  std::unique_ptr<Mdbs> system;  // Quiesced; live stores readable.
};

/// Runs a small hot durable federation; site 0 runs `protocol`.
DurableRun RunDurableWorkload(ProtocolKind protocol, uint64_t seed,
                              int64_t checkpoint_interval) {
  DurableRun run;
  run.device = std::make_shared<HistoryLogDevice>();
  MdbsConfig config = MdbsConfig::Mixed(
      {protocol, ProtocolKind::kTwoPhaseLocking}, SchemeKind::kScheme3);
  config.seed = seed;
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = checkpoint_interval;
  }
  config.sites[0].wal_device = run.device;
  run.system = std::make_unique<Mdbs>(config);
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 2;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 12;  // Hot: plenty of aborts.
  driver.local_workload.items_per_site = 12;
  RunDriver(run.system.get(), driver, seed);
  EXPECT_TRUE(run.system->RunAuditOracle().ok());
  return run;
}

class WalFuzzTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(Protocols, WalFuzzTest,
                         ::testing::Values(ProtocolKind::kTwoPhaseLocking,
                                           ProtocolKind::kMultiversionTO,
                                           ProtocolKind::kOptimistic),
                         [](const auto& info) {
                           return std::string(
                               lcc::ProtocolKindName(info.param));
                         });

// A quiesced site's log must replay to exactly the live store.
TEST_P(WalFuzzTest, QuiescedReplayMatchesLiveStore) {
  DurableRun run = RunDurableWorkload(GetParam(), 17, 64);
  bool multiversion = GetParam() == ProtocolKind::kMultiversionTO;
  MemLogDevice history(run.device->history());

  WalScan scan;
  ASSERT_TRUE(ReadWal(history, &scan).ok());
  ASSERT_GT(scan.records.size(), 100u) << "workload too small to fuzz";

  RecoveredState state;
  ASSERT_TRUE(RecoverWal(history, multiversion, &state).ok());
  EXPECT_EQ(state.scanned_records,
            static_cast<int64_t>(scan.records.size()));
  // What the site kept recovers the same store from a shorter scan.
  RecoveredState kept;
  ASSERT_TRUE(RecoverWal(*run.device, multiversion, &kept).ok());
  EXPECT_EQ(kept.store, state.store);
  EXPECT_LT(kept.scanned_records, state.scanned_records);
  for (int64_t item : ItemUniverse(scan.records)) {
    EXPECT_EQ(ValueOf(state.store, item),
              run.system->site(SiteId{0}).UnsafePeek(DataItemId{item}))
        << "item " << item << " diverged from the live store";
  }
}

// The heart of the battery: cut the log at EVERY record boundary and check
// recovery restores exactly the committed prefix — with checkpoints in the
// stream, so most cuts land between a fuzzy snapshot and its undo horizon.
TEST_P(WalFuzzTest, TruncationAtEveryBoundaryRestoresCommittedPrefix) {
  MemLogDevice device(
      RunDurableWorkload(GetParam(), 29, 48).device->history());
  bool multiversion = GetParam() == ProtocolKind::kMultiversionTO;

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  ASSERT_GE(scan.boundaries.size(), 100u)
      << "the battery must cover >= 100 truncation points";
  std::vector<int64_t> universe = ItemUniverse(scan.records);

  // Short logs get every boundary; long ones (abort-heavy protocols can
  // write tens of thousands of records) are strided to keep the battery
  // O(cuts * prefix) instead of O(records^2), never below 100 cuts.
  size_t stride = std::max<size_t>(1, scan.boundaries.size() / 150);
  std::vector<size_t> cut_indices;
  for (size_t i = 0; i <= scan.boundaries.size(); i += stride) {
    cut_indices.push_back(i);
  }
  if (cut_indices.back() != scan.boundaries.size()) {
    cut_indices.push_back(scan.boundaries.size());
  }
  ASSERT_GE(cut_indices.size(), 100u);

  const std::vector<uint8_t> image = device.Image();
  size_t checkpointed_cuts = 0;
  for (size_t i : cut_indices) {
    size_t cut = i == 0 ? 0 : scan.boundaries[i - 1];
    MemLogDevice prefix(
        std::vector<uint8_t>(image.begin(), image.begin() + cut));
    RecoveredState state;
    ASSERT_TRUE(RecoverWal(prefix, multiversion, &state).ok())
        << "boundary " << i << " (byte " << cut << ") failed to recover";
    EXPECT_FALSE(state.torn_tail);
    EXPECT_EQ(state.scanned_records, static_cast<int64_t>(i));
    if (state.used_checkpoint) ++checkpointed_cuts;

    std::unordered_map<int64_t, int64_t> expected = CommittedProjection(
        {scan.records.begin(), scan.records.begin() + i});
    for (int64_t item : universe) {
      ASSERT_EQ(ValueOf(state.store, item), ValueOf(expected, item))
          << "boundary " << i << ": item " << item
          << " diverged from the committed prefix";
    }
  }
  EXPECT_GT(checkpointed_cuts, 0u)
      << "no cut exercised checkpoint-based recovery";
}

// Cuts inside a frame are the torn tail a crash mid-append leaves: recovery
// must land on the previous boundary's state and flag the tail.
TEST_P(WalFuzzTest, MidFrameCutsBehaveAsTornTail) {
  MemLogDevice device(
      RunDurableWorkload(GetParam(), 43, 64).device->history());
  bool multiversion = GetParam() == ProtocolKind::kMultiversionTO;

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  std::vector<int64_t> universe = ItemUniverse(scan.records);
  const std::vector<uint8_t> image = device.Image();

  size_t torn_cuts = 0;
  size_t frame_stride = std::max<size_t>(7, scan.boundaries.size() / 60);
  for (size_t i = 0; i + 1 < scan.boundaries.size(); i += frame_stride) {
    size_t lo = scan.boundaries[i];
    size_t hi = scan.boundaries[i + 1];
    // One cut in the frame header, one mid-payload.
    for (size_t cut : {lo + 3, lo + (hi - lo) / 2}) {
      if (cut <= lo || cut >= hi) continue;
      MemLogDevice torn(
          std::vector<uint8_t>(image.begin(), image.begin() + cut));
      RecoveredState state;
      ASSERT_TRUE(RecoverWal(torn, multiversion, &state).ok())
          << "torn cut at byte " << cut << " was treated as corruption";
      EXPECT_TRUE(state.torn_tail);
      EXPECT_EQ(state.scanned_records, static_cast<int64_t>(i + 1));
      std::unordered_map<int64_t, int64_t> expected = CommittedProjection(
          {scan.records.begin(), scan.records.begin() + i + 1});
      for (int64_t item : universe) {
        ASSERT_EQ(ValueOf(state.store, item), ValueOf(expected, item))
            << "torn cut at byte " << cut << ": item " << item;
      }
      ++torn_cuts;
    }
  }
  EXPECT_GE(torn_cuts, 20u);
}

// Byte corruption anywhere in the image must either fail loudly or behave
// as a torn tail at the corrupted frame (possible when the length field is
// hit): recovery then equals the boundary before that frame. Silent
// acceptance of a corrupted committed value is the one forbidden outcome.
TEST_P(WalFuzzTest, CorruptionFailsLoudlyOrRecoversACommittedPrefix) {
  MemLogDevice device(
      RunDurableWorkload(GetParam(), 57, 64).device->history());
  bool multiversion = GetParam() == ProtocolKind::kMultiversionTO;

  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  std::vector<int64_t> universe = ItemUniverse(scan.records);
  const std::vector<uint8_t> image = device.Image();
  size_t image_size = image.size();
  ASSERT_GT(image_size, 120u);

  size_t loud = 0, torn = 0;
  size_t stride = image_size / 120;  // >= 120 corruption points.
  for (size_t offset = 0; offset < image_size; offset += stride + 1) {
    MemLogDevice corrupt(image);
    corrupt.CorruptByte(offset, 0x40);
    RecoveredState state;
    Status status = RecoverWal(corrupt, multiversion, &state);
    if (!status.ok()) {
      ++loud;
      continue;
    }
    // Find the frame holding the corrupted byte; recovery may only have
    // admitted the records strictly before it.
    size_t frame = 0;
    while (frame < scan.boundaries.size() &&
           scan.boundaries[frame] <= offset) {
      ++frame;
    }
    EXPECT_TRUE(state.torn_tail)
        << "corruption at byte " << offset
        << " was silently accepted as a complete log";
    EXPECT_LE(state.scanned_records, static_cast<int64_t>(frame));
    std::unordered_map<int64_t, int64_t> expected = CommittedProjection(
        {scan.records.begin(),
         scan.records.begin() + state.scanned_records});
    for (int64_t item : universe) {
      ASSERT_EQ(ValueOf(state.store, item), ValueOf(expected, item))
          << "corruption at byte " << offset << ": item " << item
          << " silently diverged";
    }
    ++torn;
  }
  EXPECT_GT(loud, 0u) << "no corruption was ever detected by CRC";
}

// ----------------------------------------------------------------------
// Site-level restart from a truncated image
// ----------------------------------------------------------------------

// A LocalDbms constructed over a non-empty device (a process restart, or a
// crash image a test built) must come up with exactly the committed prefix
// and answer reads from it.
TEST(WalRecoveryTest, SiteRestartFromTruncatedImageServesCommittedPrefix) {
  MemLogDevice device(
      RunDurableWorkload(ProtocolKind::kTwoPhaseLocking, 71, 32)
          .device->history());
  WalScan scan;
  ASSERT_TRUE(ReadWal(device, &scan).ok());
  std::vector<int64_t> universe = ItemUniverse(scan.records);
  ASSERT_GE(scan.boundaries.size(), 50u);
  const std::vector<uint8_t> image = device.Image();

  for (size_t i = 0; i < scan.boundaries.size(); i += 11) {
    size_t cut = scan.boundaries[i];
    site::SiteConfig config;
    config.id = SiteId{0};
    config.protocol = ProtocolKind::kTwoPhaseLocking;
    config.durable = true;
    config.wal_device = std::make_shared<MemLogDevice>(
        std::vector<uint8_t>(image.begin(), image.begin() + cut));
    sim::EventLoop loop;
    site::LocalDbms dbms(config, &loop);

    std::unordered_map<int64_t, int64_t> expected = CommittedProjection(
        {scan.records.begin(), scan.records.begin() + i + 1});
    for (int64_t item : universe) {
      ASSERT_EQ(dbms.UnsafePeek(DataItemId{item}), ValueOf(expected, item))
          << "restart at boundary " << i << ": item " << item;
    }
    EXPECT_EQ(dbms.durability_stats().recoveries, 1);

    // The restarted site is live: a fresh transaction reads the recovered
    // value and can commit a new one on top.
    TxnId txn{1'000'000};
    ASSERT_TRUE(dbms.Begin(txn, GlobalTxnId()).ok());
    Status status = Status::Internal("pending");
    int64_t seen = -1;
    dbms.Submit(txn, DataOp::Read(DataItemId{universe[0]}),
                [&](const Status& s, int64_t v) {
                  status = s;
                  seen = v;
                });
    loop.Run();
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(seen, ValueOf(expected, universe[0]));
    dbms.Commit(txn, [](const Status&) {});
    loop.Run();
  }
}

// Crash/recover at the site level: a durable crash wipes the volatile
// store (reads while down are refused, the store really is empty), and
// recovery replays committed data while undoing the in-flight loser.
TEST(WalRecoveryTest, DurableCrashLosesOnlyVolatileState) {
  site::SiteConfig config;
  config.id = SiteId{0};
  config.protocol = ProtocolKind::kTwoPhaseLocking;
  config.durable = true;
  sim::EventLoop loop;
  site::LocalDbms dbms(config, &loop);

  auto run_op = [&](TxnId txn, const DataOp& op) {
    Status status = Status::Internal("pending");
    dbms.Submit(txn, op, [&](const Status& s, int64_t) { status = s; });
    loop.Run();
    return status;
  };
  TxnId committed{1};
  ASSERT_TRUE(dbms.Begin(committed, GlobalTxnId()).ok());
  ASSERT_TRUE(run_op(committed, DataOp::Write(DataItemId{1}, 7)).ok());
  Status commit_status = Status::Internal("pending");
  dbms.Commit(committed, [&](const Status& s) { commit_status = s; });
  loop.Run();
  ASSERT_TRUE(commit_status.ok());

  TxnId loser{2};
  ASSERT_TRUE(dbms.Begin(loser, GlobalTxnId()).ok());
  ASSERT_TRUE(run_op(loser, DataOp::Write(DataItemId{2}, 9)).ok());
  ASSERT_EQ(dbms.UnsafePeek(DataItemId{2}), 9) << "in-place write expected";

  dbms.Crash();
  loop.Run();  // Drain the loser's failure callback.
  EXPECT_EQ(dbms.UnsafePeek(DataItemId{1}), 0)
      << "a durable crash must wipe the volatile store";
  EXPECT_EQ(dbms.UnsafePeek(DataItemId{2}), 0);
  EXPECT_FALSE(dbms.IsActive(loser));

  dbms.Recover();
  loop.Run();
  EXPECT_FALSE(dbms.IsDown());
  EXPECT_EQ(dbms.UnsafePeek(DataItemId{1}), 7)
      << "the committed write did not survive the crash";
  EXPECT_EQ(dbms.UnsafePeek(DataItemId{2}), 0)
      << "the loser's write leaked through recovery";
  site::SiteDurabilityStats stats = dbms.durability_stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_GT(stats.replay_records, 0);
  EXPECT_EQ(stats.redo_writes, 1);
  EXPECT_EQ(stats.undone_writes, 1);
}

// ----------------------------------------------------------------------
// The log's bytes are fixed
// ----------------------------------------------------------------------

/// FNV-1a (64-bit) over a device image.
uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Checkpoint images are kept incrementally and records are encoded in one
// pass; neither may change a byte of what the log says. Every durable
// protocol checkpoints every 4 records through a crash on every site, and
// each site's WAL, like the log of the durable GTM that ships its frames to
// a warm standby, must hash to the digest this exact run produced when the
// checkpoint was still rebuilt from the live tables. A site, like the GTM,
// keeps only its WAL's suffix from the last checkpoint on, so each digest
// is taken over the history its device recorded: the appended byte
// stream, which discarding does not change. What each site kept must
// replay to its live store.
TEST(WalDigestTest, FrequentCheckpointsThroughCrashesWriteTheRecordedBytes) {
  const std::vector<ProtocolKind> protocols = {
      ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
      ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic,
      ProtocolKind::kMultiversionTO};
  // Site i's WAL digest for this run, one per protocol above.
  const std::vector<uint64_t> kRecordedDigests = {
      0x40c1c69e4272afc7ull, 0x82e8441b78e72b26ull, 0x51f3d297d28084caull,
      0x14caee9dcc6d12faull, 0x55b05abdcbf630cfull};
  const uint64_t kRecordedGtmDigest = 0x63871d58d51674f9ull;

  MdbsConfig config = MdbsConfig::Mixed(protocols, SchemeKind::kScheme3);
  config.seed = 41;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  StatusOr<fault::FaultPlan> plan = fault::ParseFaultPlan(
      "crash@1500:s0:1200;crash@3000:s4:1500;crash@4500:s2:1000;"
      "crash@6000:s1:1500;crash@7500:s3:1200;crash@9000:s4:800");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  config.fault_plan = *plan;
  auto gtm_device = std::make_shared<HistoryLogDevice>();
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 16;
  config.gtm.wal_device = gtm_device;
  config.gtm_standby = true;
  std::vector<std::shared_ptr<HistoryLogDevice>> devices;
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = 4;
    devices.push_back(std::make_shared<HistoryLogDevice>());
    site.wal_device = devices.back();
  }
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 80;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 400;
  DriverReport report = RunDriver(&system, driver, 41);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_EQ(report.durability.recoveries, 6);
  EXPECT_GT(report.durability.checkpoints, 100);

  auto hex = [](uint64_t digest) {
    char text[19];
    std::snprintf(text, sizeof(text), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string(text);
  };
  const std::vector<uint8_t>& gtm_image = gtm_device->history();
  EXPECT_EQ(Fnv1a64(gtm_image), kRecordedGtmDigest)
      << "GTM log digest is now " << hex(Fnv1a64(gtm_image)) << " over "
      << gtm_image.size() << " bytes";
  for (size_t i = 0; i < protocols.size(); ++i) {
    SCOPED_TRACE(lcc::ProtocolKindName(protocols[i]));
    site::LocalDbms& site = system.site(SiteId{static_cast<int64_t>(i)});
    ASSERT_FALSE(site.IsDown());
    const std::vector<uint8_t>& image = devices[i]->history();
    EXPECT_EQ(Fnv1a64(image), kRecordedDigests[i])
        << "site " << i << " WAL digest is now " << hex(Fnv1a64(image))
        << " over " << image.size() << " bytes";

    WalScan scan;
    ASSERT_TRUE(ReadWal(MemLogDevice(image), &scan).ok());
    RecoveredState state;
    ASSERT_TRUE(RecoverWal(*devices[i],
                           protocols[i] == ProtocolKind::kMultiversionTO,
                           &state)
                    .ok());
    for (int64_t item : ItemUniverse(scan.records)) {
      EXPECT_EQ(ValueOf(state.store, item), site.UnsafePeek(DataItemId{item}))
          << "item " << item << " diverged from the live store";
    }
  }
}

}  // namespace
}  // namespace mdbs
