// Unit tests for the checkpoint journal's binary substrate (DESIGN.md
// §12): CRC-32 against known vectors, the byte codec's bounds discipline,
// and frame scanning's two failure classes — corrupt frames (skipped, the
// scan continues) and torn tails (the scan stops). Every corruption here
// is injected by hand at a chosen byte, so each classification rule is
// pinned to the exact damage that triggers it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/failure.hpp"
#include "common/json.hpp"
#include "persist/checkpoint.hpp"
#include "persist/frame_io.hpp"

namespace mcs {
namespace {

std::uint32_t crc_of(const std::string& s) {
    return crc32(s.data(), s.size());
}

class TempDir {
public:
    TempDir() {
        dir_ = std::filesystem::temp_directory_path() /
               ("mcs_persist_test_" +
                std::to_string(
                    reinterpret_cast<std::uintptr_t>(this)));
        std::filesystem::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

private:
    std::filesystem::path dir_;
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

void flip_bit(const std::string& path, std::size_t offset) {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
}

void truncate_to(const std::string& path, std::size_t size) {
    std::filesystem::resize_file(path, size);
}

// ---- CRC-32 -------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
    // The IEEE 802.3 check value and friends, from the standard tables.
    EXPECT_EQ(crc_of(""), 0x00000000u);
    EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
    EXPECT_EQ(crc_of("abc"), 0x352441C2u);
    EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
    const std::string whole = "123456789";
    const std::uint32_t split =
        crc32(whole.data() + 4, 5, crc32(whole.data(), 4));
    EXPECT_EQ(split, crc_of(whole));
}

TEST(Crc32Test, SingleBitFlipChangesEveryPrefixLength) {
    for (std::size_t len : {1u, 2u, 7u, 64u, 1000u}) {
        std::vector<std::uint8_t> data(len, 0xA5);
        const std::uint32_t clean = crc32(data.data(), data.size());
        for (std::size_t bit : {std::size_t{0}, len * 8 - 1}) {
            std::vector<std::uint8_t> flipped = data;
            flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            EXPECT_NE(crc32(flipped.data(), flipped.size()), clean)
                << "undetected bit flip at bit " << bit << " of " << len
                << " bytes";
        }
    }
}

// ---- byte codec ---------------------------------------------------------

TEST(ByteCodecTest, RoundTripsEveryType) {
    ByteWriter w;
    w.put_u8(0xFE);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_f64(-0.0);
    w.put_f64(1.0 / 3.0);
    w.put_string("shard context φ");
    w.put_string("");

    ByteReader r({w.bytes().data(), w.bytes().size()});
    EXPECT_EQ(r.get_u8(), 0xFE);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(std::signbit(r.get_f64()));  // -0.0 survives bit-exactly
    EXPECT_EQ(r.get_f64(), 1.0 / 3.0);
    EXPECT_EQ(r.get_string(), "shard context φ");
    EXPECT_EQ(r.get_string(), "");
    EXPECT_TRUE(r.at_end());
}

TEST(ByteCodecTest, OverrunThrowsInsteadOfReadingPastEnd) {
    ByteWriter w;
    w.put_u32(7);
    ByteReader r({w.bytes().data(), w.bytes().size()});
    EXPECT_EQ(r.get_u32(), 7u);
    EXPECT_THROW(r.get_u8(), Error);
    // A string whose length prefix lies about the remaining bytes.
    ByteWriter lie;
    lie.put_u32(1000);  // claims 1000 bytes follow; none do
    ByteReader r2({lie.bytes().data(), lie.bytes().size()});
    EXPECT_THROW(r2.get_string(), Error);
}

// ---- frame writer / scanner ---------------------------------------------

TEST(FrameScanTest, MissingFileIsAnEmptyScan) {
    TempDir tmp;
    const FrameScan scan = scan_frames(tmp.path("never_written.bin"));
    EXPECT_TRUE(scan.frames.empty());
    EXPECT_EQ(scan.corrupt_frames, 0u);
    EXPECT_FALSE(scan.torn_tail);
}

TEST(FrameScanTest, RoundTripsFramesInOrder) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("first"));
        writer.append(bytes_of(""));  // empty payload is a legal frame
        writer.append(bytes_of("x")); // one-byte payload
    }
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[0], bytes_of("first"));
    EXPECT_EQ(scan.frames[1], bytes_of(""));
    EXPECT_EQ(scan.frames[2], bytes_of("x"));
    EXPECT_EQ(scan.corrupt_frames, 0u);
    EXPECT_FALSE(scan.torn_tail);
}

TEST(FrameScanTest, AppendModeExtendsAnExistingJournal) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("old"));
    }
    {
        FrameWriter writer(path, false);
        writer.append(bytes_of("new"));
    }
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0], bytes_of("old"));
    EXPECT_EQ(scan.frames[1], bytes_of("new"));
}

TEST(FrameScanTest, PayloadBitFlipSkipsOnlyThatFrame) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("aaaaaaa"));
        writer.append(bytes_of("bbbbbbb"));
        writer.append(bytes_of("ccccccc"));
    }
    // Frame layout: 16-byte header + payload. Flip a payload byte of the
    // middle frame: header intact, CRC fails, scan must resynchronise at
    // frame 3.
    const std::size_t frame_bytes = 16 + 7;
    flip_bit(path, frame_bytes + 16 + 3);
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 2u);
    EXPECT_EQ(scan.frames[0], bytes_of("aaaaaaa"));
    EXPECT_EQ(scan.frames[1], bytes_of("ccccccc"));
    EXPECT_EQ(scan.corrupt_frames, 1u);
    EXPECT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.errors.size(), 1u);
    EXPECT_NE(scan.errors[0].find("CRC"), std::string::npos);
}

TEST(FrameScanTest, TruncatedTailIsTornNotCorrupt) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("complete"));
        writer.append(bytes_of("will be cut"));
    }
    const std::size_t first = 16 + 8;
    // Cut mid-way through the second frame's payload: the classic shape
    // of a crash between write() and the next append.
    truncate_to(path, first + 16 + 4);
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0], bytes_of("complete"));
    EXPECT_EQ(scan.corrupt_frames, 0u);
    EXPECT_TRUE(scan.torn_tail);
}

TEST(FrameScanTest, TruncatedHeaderIsTorn) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("complete"));
        writer.append(bytes_of("victim"));
    }
    const std::size_t first = 16 + 8;
    truncate_to(path, first + 7);  // 7 of 16 header bytes
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_TRUE(scan.torn_tail);
}

TEST(FrameScanTest, BadMagicStopsTheScan) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("good"));
        writer.append(bytes_of("unreachable"));
    }
    // Clobber the second frame's magic word: everything from there on is
    // unframed garbage, even though a complete frame physically follows.
    flip_bit(path, 16 + 4);
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0], bytes_of("good"));
    EXPECT_TRUE(scan.torn_tail);
}

TEST(FrameScanTest, RewriteCompactsToExactlyTheGivenPayloads) {
    TempDir tmp;
    const std::string path = tmp.path("journal.bin");
    {
        FrameWriter writer(path, true);
        writer.append(bytes_of("stale"));
        writer.append(bytes_of("stale2"));
    }
    rewrite_frames(path, {bytes_of("kept")});
    const FrameScan scan = scan_frames(path);
    ASSERT_EQ(scan.frames.size(), 1u);
    EXPECT_EQ(scan.frames[0], bytes_of("kept"));
    // And the compacted journal accepts further appends.
    {
        FrameWriter writer(path, false);
        writer.append(bytes_of("appended"));
    }
    EXPECT_EQ(scan_frames(path).frames.size(), 2u);
}

TEST(FrameScanTest, AtomicWriteFileReplacesContent) {
    TempDir tmp;
    const std::string path = tmp.path("manifest.json");
    atomic_write_file(path, "{\"a\": 1}");
    atomic_write_file(path, "{\"b\": 2}");
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"b\": 2}");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---- FailureKind / report plumbing for the new taxonomy entry -----------

TEST(CheckpointFailureTest, CheckpointCorruptRoundTripsThroughJson) {
    FailureReport report;
    report.kind = FailureKind::kCheckpointCorrupt;
    report.phase = "journal";
    report.shard = 3;
    report.detail = "frame 2 at offset 4242: payload CRC mismatch";
    const Json encoded = report.to_json();
    EXPECT_EQ(encoded.at("kind").as_string(), "checkpoint_corrupt");
    const FailureReport decoded = FailureReport::from_json(encoded);
    EXPECT_EQ(decoded.kind, FailureKind::kCheckpointCorrupt);
    EXPECT_EQ(decoded.phase, "journal");
    EXPECT_EQ(decoded.shard, 3u);
    EXPECT_EQ(decoded.detail, report.detail);
}

TEST(CheckpointFailureTest, NameMappingIsStable) {
    EXPECT_STREQ(to_string(FailureKind::kCheckpointCorrupt),
                 "checkpoint_corrupt");
    EXPECT_EQ(failure_kind_from_string("checkpoint_corrupt"),
              FailureKind::kCheckpointCorrupt);
}

// ---- ShardCheckpoint record codec ---------------------------------------

ShardCheckpoint sample_record() {
    ShardCheckpoint rec;
    rec.shard_index = 2;
    rec.row_begin = 16;
    rec.row_end = 24;
    rec.seed = 0xFEEDFACECAFEBEEFull;
    rec.iterations = 4;
    rec.converged = true;
    rec.level = 1;
    rec.attempts = 2;
    FailureReport failure;
    failure.kind = FailureKind::kObjectiveDivergence;
    failure.phase = "asd_minimize";
    failure.shard = 2;
    failure.iteration = 7;
    failure.detail = "objective rose";
    rec.failures.push_back(failure);
    rec.detection = Matrix(8, 5);
    rec.detection(1, 2) = 1.0;
    rec.reconstructed_x = Matrix::constant(8, 5, 1.25);
    rec.reconstructed_y = Matrix::constant(8, 5, -2.5);
    rec.history.push_back({1, 10, 3, 0.5, 0.25});
    rec.counters.itscs_iterations = 4;
    rec.counters.checkpoint_commits = 1;
    rec.phases.push_back({"correct", 8, 0.125});
    return rec;
}

TEST(ShardCheckpointTest, EncodeDecodeRoundTrips) {
    const ShardCheckpoint rec = sample_record();
    const std::vector<std::uint8_t> payload = encode_shard_checkpoint(rec);
    const ShardCheckpoint back =
        decode_shard_checkpoint({payload.data(), payload.size()});
    EXPECT_EQ(back.shard_index, rec.shard_index);
    EXPECT_EQ(back.row_begin, rec.row_begin);
    EXPECT_EQ(back.row_end, rec.row_end);
    EXPECT_EQ(back.seed, rec.seed);
    EXPECT_EQ(back.iterations, rec.iterations);
    EXPECT_EQ(back.converged, rec.converged);
    EXPECT_EQ(back.level, rec.level);
    EXPECT_EQ(back.attempts, rec.attempts);
    ASSERT_EQ(back.failures.size(), 1u);
    EXPECT_EQ(back.failures[0].kind, FailureKind::kObjectiveDivergence);
    EXPECT_EQ(back.failures[0].detail, "objective rose");
    EXPECT_EQ(back.detection(1, 2), 1.0);
    EXPECT_EQ(back.reconstructed_x(0, 0), 1.25);
    EXPECT_EQ(back.reconstructed_y(7, 4), -2.5);
    ASSERT_EQ(back.history.size(), 1u);
    EXPECT_EQ(back.history[0].flagged, 10u);
    EXPECT_EQ(back.counters.itscs_iterations, 4u);
    EXPECT_EQ(back.counters.checkpoint_commits, 1u);
    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].name, "correct");
    EXPECT_EQ(back.phases[0].calls, 8u);
}

TEST(ShardCheckpointTest, TruncatedPayloadThrowsNotCrashes) {
    const std::vector<std::uint8_t> payload =
        encode_shard_checkpoint(sample_record());
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{3}, payload.size() / 2,
          payload.size() - 1}) {
        EXPECT_THROW(decode_shard_checkpoint({payload.data(), cut}), Error)
            << "cut at " << cut;
    }
}

TEST(ShardCheckpointTest, TrailingBytesAreRejected) {
    std::vector<std::uint8_t> payload =
        encode_shard_checkpoint(sample_record());
    payload.push_back(0x00);
    EXPECT_THROW(decode_shard_checkpoint({payload.data(), payload.size()}),
                 Error);
}

// A record as format v4 wrote it: stamped 4, with the two retired
// mixed-tier gate counters (checks, trips) after checkpoint_corrupt_frames.
std::vector<std::uint8_t> v4_record() {
    ShardCheckpoint rec = sample_record();
    const std::uint64_t marker = 0x0123456789ABCDEFull;
    rec.counters.checkpoint_corrupt_frames = marker;
    std::vector<std::uint8_t> payload = encode_shard_checkpoint(rec);
    ByteWriter field;
    field.put_u64(marker);
    const auto at = std::search(payload.begin(), payload.end(),
                                field.bytes().begin(), field.bytes().end());
    EXPECT_NE(at, payload.end());
    payload.insert(at + 8, 16, std::uint8_t{7});
    ByteWriter version;
    version.put_u32(4);
    std::copy(version.bytes().begin(), version.bytes().end(),
              payload.begin());
    return payload;
}

// A record as format v5 wrote it: stamped 5, with the four retired
// per-backend solver counters after cs_solves.
std::vector<std::uint8_t> v5_record() {
    ShardCheckpoint rec = sample_record();
    const std::uint64_t marker = 0x0123456789ABCDEFull;
    rec.counters.cs_solves = marker;
    std::vector<std::uint8_t> payload = encode_shard_checkpoint(rec);
    ByteWriter field;
    field.put_u64(marker);
    const auto at = std::search(payload.begin(), payload.end(),
                                field.bytes().begin(), field.bytes().end());
    EXPECT_NE(at, payload.end());
    payload.insert(at + 8, 32, std::uint8_t{7});
    ByteWriter version;
    version.put_u32(5);
    std::copy(version.bytes().begin(), version.bytes().end(),
              payload.begin());
    return payload;
}

TEST(ShardCheckpointTest, WrongVersionIsRejected) {
    std::vector<std::uint8_t> flipped =
        encode_shard_checkpoint(sample_record());
    flipped[0] ^= 0xFF;  // version is the first encoded field
    EXPECT_THROW(decode_shard_checkpoint({flipped.data(), flipped.size()}),
                 Error);

    // Journals left by earlier formats are refused, not resumed.
    for (const auto& [stamp, old] :
         {std::pair{4, v4_record()}, std::pair{5, v5_record()}}) {
        try {
            decode_shard_checkpoint({old.data(), old.size()});
            ADD_FAILURE() << "a v" << stamp << " record decoded under v"
                          << kCheckpointVersion;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "version " + std::to_string(stamp)),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace mcs
