#include "persist/slab_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "persist/frame_io.hpp"

namespace mcs {

namespace {

constexpr std::size_t kPage = 4096;
constexpr std::uint32_t kSlabMetaVersion = 1;

std::size_t align_up(std::size_t bytes) {
    return (bytes + kPage - 1) / kPage * kPage;
}

std::string errno_detail(const char* what, const std::string& path) {
    return std::string(what) + " " + path + ": " + std::strerror(errno);
}

std::vector<std::uint8_t> encode_meta(
    const SlabGeometry& g, const std::vector<SlabShardInfo>& shards) {
    ByteWriter w;
    w.put_u32(kSlabMetaVersion);
    w.put_u64(g.participants);
    w.put_u64(g.slots);
    w.put_u64(g.shard_count);
    w.put_u64(g.max_shard_rows);
    w.put_u32(static_cast<std::uint32_t>(g.tier));
    w.put_f64(g.tau_s);
    w.put_u32(g.planner_mode);
    w.put_u64(g.plan_fingerprint);
    w.put_u64(g.input_fingerprint);
    w.put_u64(shards.size());
    for (const SlabShardInfo& s : shards) {
        w.put_u64(s.begin);
        w.put_u64(s.end);
        w.put_u64(s.rows.size());
        for (const std::uint32_t r : s.rows) {
            w.put_u32(r);
        }
    }
    return w.bytes();
}

void decode_meta(std::span<const std::uint8_t> payload, SlabGeometry* g,
                 std::vector<SlabShardInfo>* shards) {
    ByteReader r(payload);
    const std::uint32_t version = r.get_u32();
    MCS_CHECK_MSG(version == kSlabMetaVersion,
                  "slab meta: version " + std::to_string(version) +
                      " (expected " + std::to_string(kSlabMetaVersion) + ")");
    g->participants = r.get_u64();
    g->slots = r.get_u64();
    g->shard_count = r.get_u64();
    g->max_shard_rows = r.get_u64();
    const std::uint32_t tier = r.get_u32();
    MCS_CHECK_MSG(tier <= static_cast<std::uint32_t>(StorageTier::kF32),
                  "slab meta: unknown storage tier " + std::to_string(tier));
    g->tier = static_cast<StorageTier>(tier);
    g->tau_s = r.get_f64();
    g->planner_mode = r.get_u32();
    g->plan_fingerprint = r.get_u64();
    g->input_fingerprint = r.get_u64();
    const std::uint64_t count = r.get_u64();
    MCS_CHECK_MSG(count == g->shard_count &&
                      count <= r.remaining() / (8 + 8 + 8),
                  "slab meta: implausible shard count " +
                      std::to_string(count));
    shards->clear();
    shards->reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
        SlabShardInfo s;
        s.begin = r.get_u64();
        s.end = r.get_u64();
        const std::uint64_t members = r.get_u64();
        MCS_CHECK_MSG(members <= r.remaining() / 4,
                      "slab meta: member list exceeds payload");
        s.rows.reserve(members);
        for (std::uint64_t m = 0; m < members; ++m) {
            s.rows.push_back(r.get_u32());
        }
        shards->push_back(std::move(s));
    }
    MCS_CHECK_MSG(r.at_end(), "slab meta: trailing bytes");
}

// Element-wise staging between the caller's doubles and a slab's stored
// representation. The f32 round trip rounds once per write
// (IEEE round-to-nearest) — deterministic, so it belongs to the numerics
// contract of the tier, not to scheduling.
void store_elements(std::uint8_t* dst, const double* src, std::size_t n,
                    StorageTier tier) {
    if (tier == StorageTier::kF64) {
        std::memcpy(dst, src, n * sizeof(double));
        return;
    }
    auto* out = reinterpret_cast<float*>(dst);
    for (std::size_t k = 0; k < n; ++k) {
        out[k] = static_cast<float>(src[k]);
    }
}

void load_elements(double* dst, const std::uint8_t* src, std::size_t n,
                   StorageTier tier) {
    if (tier == StorageTier::kF64) {
        std::memcpy(dst, src, n * sizeof(double));
        return;
    }
    const auto* in = reinterpret_cast<const float*>(src);
    for (std::size_t k = 0; k < n; ++k) {
        dst[k] = static_cast<double>(in[k]);
    }
}

// The layout every slab address is computed from, checked at create and at
// open: a CRC-valid but self-inconsistent slabs.meta is refused instead of
// addressing bytes outside the map.
void check_layout(const SlabGeometry& g,
                  const std::vector<SlabShardInfo>& shards) {
    MCS_CHECK_MSG(g.shard_count == shards.size() && !shards.empty(),
                  "SlabStore: geometry shard_count disagrees with the "
                  "shard list, or the list is empty");
    // participants × slots × 128 bytes stays representable, so every
    // stride below is too.
    constexpr std::size_t kMaxCells =
        std::numeric_limits<std::size_t>::max() / 128;
    MCS_CHECK_MSG(g.slots > 0 && g.participants > 0 &&
                      g.participants <= kMaxCells / g.slots,
                  "SlabStore: empty or implausible geometry");
    std::size_t max_rows = 0;
    for (const SlabShardInfo& s : shards) {
        const bool inside =
            s.rows.empty()
                ? s.begin < s.end && s.end <= g.participants
                : s.rows.size() <= g.participants &&
                      std::all_of(s.rows.begin(), s.rows.end(),
                                  [&](std::uint32_t r) {
                                      return r < g.participants;
                                  });
        MCS_CHECK_MSG(inside, "SlabStore: a shard is empty or has rows "
                              "outside the fleet");
        max_rows = std::max(max_rows, s.size());
    }
    MCS_CHECK_MSG(g.max_shard_rows == max_rows,
                  "SlabStore: max_shard_rows disagrees with the shard list");
    MCS_CHECK_MSG(g.shard_count <= std::numeric_limits<std::size_t>::max() /
                                       (g.input_stride() + g.output_stride()),
                  "SlabStore: implausible shard count");
}

}  // namespace

const char* to_string(StorageTier tier) {
    return tier == StorageTier::kF32 ? "f32" : "f64";
}

StorageTier parse_storage_tier(const std::string& name) {
    if (name == "f64") {
        return StorageTier::kF64;
    }
    if (name == "f32") {
        return StorageTier::kF32;
    }
    throw Error("unknown storage tier '" + name + "' (expected f64 | f32)");
}

std::size_t element_size(StorageTier tier) {
    return tier == StorageTier::kF32 ? 4 : 8;
}

std::size_t SlabGeometry::input_stride() const {
    return align_up(max_shard_rows * slots * element_size(tier) *
                    kSlabInputMatrices);
}

std::size_t SlabGeometry::output_stride() const {
    return align_up(max_shard_rows * slots * element_size(tier) *
                    kSlabOutputMatrices);
}

std::size_t SlabGeometry::file_size() const {
    return shard_count * (input_stride() + output_stride());
}

std::size_t SlabGeometry::input_bytes(std::size_t rows) const {
    return rows * slots * element_size(tier) * kSlabInputMatrices;
}

std::size_t SlabGeometry::output_bytes(std::size_t rows) const {
    return rows * slots * element_size(tier) * kSlabOutputMatrices;
}

SlabStore::SlabStore(const std::string& dir, const SlabGeometry& geometry,
                     std::vector<SlabShardInfo> shards)
    : dir_(dir), geometry_(geometry), shards_(std::move(shards)) {
    MCS_CHECK_MSG(!dir_.empty(), "SlabStore: empty directory");
    check_layout(geometry_, shards_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    MCS_CHECK_MSG(!ec,
                  "SlabStore: cannot create " + dir_ + ": " + ec.message());

    // One frame, rewritten atomically — the meta is either the complete
    // new geometry or the complete old one, never a torn mix.
    rewrite_frames(dir_ + "/slabs.meta", {encode_meta(geometry_, shards_)});
    map_file(/*truncate_to_size=*/true);
}

SlabStore::SlabStore(const std::string& dir) : dir_(dir) {
    MCS_CHECK_MSG(!dir_.empty(), "SlabStore: empty directory");
    const FrameScan scan = scan_frames(dir_ + "/slabs.meta");
    MCS_CHECK_MSG(scan.frames.size() == 1 && scan.corrupt_frames == 0 &&
                      !scan.torn_tail,
                  "SlabStore: " + dir_ +
                      "/slabs.meta is missing or corrupt; delete the slab "
                      "directory and re-ingest");
    decode_meta(scan.frames.front(), &geometry_, &shards_);
    check_layout(geometry_, shards_);
    map_file(/*truncate_to_size=*/true);
}

void SlabStore::map_file(bool truncate_to_size) {
    const std::string path = dir_ + "/slabs.bin";
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    MCS_CHECK_MSG(fd_ >= 0, "SlabStore: " + errno_detail("open", path));
    map_size_ = geometry_.file_size();
    if (truncate_to_size) {
        // Zero-extends a torn or fresh file: every mapped read is
        // in-bounds, and a shard whose slab was lost reads zeros that
        // fail its journaled CRC — recovery is re-running that shard.
        if (::ftruncate(fd_, static_cast<off_t>(map_size_)) != 0) {
            const std::string detail = errno_detail("ftruncate", path);
            ::close(fd_);
            fd_ = -1;
            throw Error("SlabStore: " + detail);
        }
    }
    void* map = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd_, 0);
    if (map == MAP_FAILED) {
        const std::string detail = errno_detail("mmap", path);
        ::close(fd_);
        fd_ = -1;
        throw Error("SlabStore: " + detail);
    }
    map_ = static_cast<std::uint8_t*>(map);
}

SlabStore::~SlabStore() {
    if (map_ != nullptr) {
        ::msync(map_, map_size_, MS_ASYNC);
        ::munmap(map_, map_size_);
    }
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

std::uint8_t* SlabStore::input_slab(std::size_t s) const {
    MCS_CHECK_MSG(s < geometry_.shard_count,
                  "SlabStore: shard index out of range");
    return map_ + s * geometry_.input_stride();
}

std::uint8_t* SlabStore::output_slab(std::size_t s) const {
    MCS_CHECK_MSG(s < geometry_.shard_count,
                  "SlabStore: shard index out of range");
    return map_ + geometry_.shard_count * geometry_.input_stride() +
           s * geometry_.output_stride();
}

void SlabStore::write_inputs(std::size_t s,
                             const double* const mats[kSlabInputMatrices]) {
    const std::size_t rows = shards_[s].size();
    const std::size_t elems = rows * geometry_.slots;
    const std::size_t bytes = elems * element_size(geometry_.tier);
    std::uint8_t* slab = input_slab(s);
    for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
        store_elements(slab + m * bytes, mats[m], elems, geometry_.tier);
    }
}

void SlabStore::read_inputs(std::size_t s,
                            double* const mats[kSlabInputMatrices]) const {
    const std::size_t rows = shards_[s].size();
    const std::size_t elems = rows * geometry_.slots;
    const std::size_t bytes = elems * element_size(geometry_.tier);
    const std::uint8_t* slab = input_slab(s);
    for (std::size_t m = 0; m < kSlabInputMatrices; ++m) {
        load_elements(mats[m], slab + m * bytes, elems, geometry_.tier);
    }
}

void SlabStore::write_outputs(
    std::size_t s, const double* const mats[kSlabOutputMatrices]) {
    const std::size_t rows = shards_[s].size();
    const std::size_t elems = rows * geometry_.slots;
    const std::size_t bytes = elems * element_size(geometry_.tier);
    std::uint8_t* slab = output_slab(s);
    for (std::size_t m = 0; m < kSlabOutputMatrices; ++m) {
        store_elements(slab + m * bytes, mats[m], elems, geometry_.tier);
    }
}

void SlabStore::read_outputs(std::size_t s,
                             double* const mats[kSlabOutputMatrices]) const {
    const std::size_t rows = shards_[s].size();
    const std::size_t elems = rows * geometry_.slots;
    const std::size_t bytes = elems * element_size(geometry_.tier);
    const std::uint8_t* slab = output_slab(s);
    for (std::size_t m = 0; m < kSlabOutputMatrices; ++m) {
        load_elements(mats[m], slab + m * bytes, elems, geometry_.tier);
    }
}

std::uint32_t SlabStore::output_crc(std::size_t s) const {
    return crc32(output_slab(s),
                 geometry_.output_bytes(shards_[s].size()));
}

void SlabStore::prefetch_inputs(std::size_t s) const {
    if (s >= geometry_.shard_count) {
        return;  // the scheduler's "no next item" sentinel lands here
    }
    ::madvise(input_slab(s), geometry_.input_stride(), MADV_WILLNEED);
}

void SlabStore::evict(std::size_t s) const {
    std::uint8_t* in = input_slab(s);
    std::uint8_t* out = output_slab(s);
    ::msync(out, geometry_.output_stride(), MS_ASYNC);
    ::madvise(in, geometry_.input_stride(), MADV_DONTNEED);
    ::madvise(out, geometry_.output_stride(), MADV_DONTNEED);
}

void SlabStore::sync() const {
    if (map_ != nullptr) {
        ::msync(map_, map_size_, MS_SYNC);
    }
}

SlabOutputs gather_outputs(const SlabStore& store) {
    const std::size_t n = store.geometry().participants;
    const std::size_t t = store.geometry().slots;
    SlabOutputs out{Matrix(n, t), Matrix(n, t), Matrix(n, t)};
    Matrix* fleet[kSlabOutputMatrices] = {
        &out.detection, &out.reconstructed_x, &out.reconstructed_y};
    Matrix shard[kSlabOutputMatrices];
    for (std::size_t s = 0; s < store.shards().size(); ++s) {
        const SlabShardInfo& info = store.shards()[s];
        double* mats[kSlabOutputMatrices];
        for (std::size_t m = 0; m < kSlabOutputMatrices; ++m) {
            shard[m] = Matrix(info.size(), t);
            mats[m] = shard[m].data().data();
        }
        store.read_outputs(s, mats);
        for (std::size_t k = 0; k < info.size(); ++k) {
            for (std::size_t m = 0; m < kSlabOutputMatrices; ++m) {
                const auto src = shard[m].row(k);
                std::copy(src.begin(), src.end(),
                          fleet[m]->row(info.row_at(k)).begin());
            }
        }
    }
    return out;
}

}  // namespace mcs
