#include "graph/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/mapped_file.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/strings.h"
#include "graph/snapshot_format.h"

namespace edgeshed::graph {

namespace {

/// The DataLoss status a chunk-CRC mismatch reports.
Status ChunkMismatch(const SnapshotHeader& header, uint64_t chunk,
                     uint64_t file_bytes, const std::string& path) {
  const uint64_t begin = header.DataStart() + chunk * header.chunk_bytes;
  return Status::DataLoss(StrFormat(
      "snapshot chunk %llu checksum mismatch (file bytes "
      "[%llu, %llu)): %s",
      static_cast<unsigned long long>(chunk),
      static_cast<unsigned long long>(begin),
      static_cast<unsigned long long>(
          std::min<uint64_t>(begin + header.chunk_bytes, file_bytes)),
      path.c_str()));
}

/// The pread buffer each chunk-CRC worker folds its chunks through. Small
/// enough that the bytes are still in L2 when the CRC reads them, and that
/// verifying at several threads keeps a small resident set.
constexpr uint64_t kVerifyReadBytes = uint64_t{256} << 10;

/// Reads exactly [offset, offset + len) from `fd`, retrying short reads.
Status PreadFully(int fd, char* out, uint64_t len, uint64_t offset,
                  const std::string& path) {
  while (len > 0) {
    const ssize_t got =
        ::pread(fd, out, static_cast<size_t>(len), static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed: " + path);
    }
    if (got == 0) {
      return Status::IOError("unexpected end of file: " + path);
    }
    out += got;
    len -= static_cast<uint64_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

/// The one v3 verification, for zero-copy and copy loads alike: every chunk
/// CRC plus ValidateCsr's content checks. It reads the file with pread(2)
/// into bounded buffers instead of through the mapping, so verifying a
/// snapshot does not fault the whole file into the process and defeat the
/// point of a zero-copy load. Only the offsets
/// section (hot for every query anyway) and the canonical edge section
/// (random-accessed to answer incident-id lookups) are read through the
/// mapping; for a typical graph that is about a quarter of the file, and
/// the rest stays unfaulted until a query touches it.
///
/// Two passes on up to `options.threads` threads, each worker with one
/// buffer it reuses: the chunk CRCs, one chunk at a time, then ValidateCsr
/// over windows of adjacency and incident slots. A CRC mismatch is
/// DataLoss naming the lowest bad chunk, whatever the content holds.
Status VerifySnapshotStreamed(const std::string& path, const MappedFile& file,
                              const SnapshotHeader& header,
                              const IngestOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};
  const int threads =
      options.threads > 0 ? options.threads : DefaultThreadCount();

  const uint64_t data_start = header.DataStart();
  const uint64_t num_chunks = header.chunk_crcs.size();
  std::atomic<uint64_t> next_chunk{0};
  std::atomic<uint64_t> bad_chunk{num_chunks};  // the lowest seen so far
  std::atomic<bool> io_error{false};
  ParallelForEach(
      0, std::min<uint64_t>(static_cast<uint64_t>(threads), num_chunks),
      [&](uint64_t) {
        const uint64_t buf_bytes =
            std::min<uint64_t>(header.chunk_bytes, kVerifyReadBytes);
        std::unique_ptr<char[]> buf;  // allocated on this worker's 1st chunk
        for (;;) {
          const uint64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
          // Chunks pull in ascending order: past a bad one, none can be
          // lower.
          if (c >= num_chunks ||
              c > bad_chunk.load(std::memory_order_relaxed) ||
              io_error.load(std::memory_order_relaxed) ||
              CancellationRequested(options.cancel)) {
            return;
          }
          if (buf == nullptr) {
            buf = std::make_unique_for_overwrite<char[]>(buf_bytes);
          }
          const uint64_t chunk_begin = data_start + c * header.chunk_bytes;
          const uint64_t chunk_end = std::min<uint64_t>(
              chunk_begin + header.chunk_bytes, file.size());
          uint32_t state = kCrc32Init;
          for (uint64_t pos = chunk_begin; pos < chunk_end;) {
            const uint64_t len = std::min<uint64_t>(buf_bytes, chunk_end - pos);
            if (!PreadFully(fd, buf.get(), len, pos, path).ok()) {
              io_error.store(true, std::memory_order_relaxed);
              return;
            }
            state = Crc32Update(state, buf.get(), len);
            pos += len;
          }
          if (Crc32Finalize(state) != header.chunk_crcs[c]) {
            uint64_t lowest = bad_chunk.load(std::memory_order_relaxed);
            while (c < lowest && !bad_chunk.compare_exchange_weak(
                                     lowest, c, std::memory_order_relaxed)) {
            }
          }
        }
      },
      threads, /*grain=*/1);
  if (CancellationRequested(options.cancel)) return options.cancel->ToStatus();
  if (io_error.load()) return Status::IOError("read failed: " + path);
  if (const uint64_t c = bad_chunk.load(); c != num_chunks) {
    return ChunkMismatch(header, c, file.size(), path);
  }

  // Content: offsets and edges through the mapping, adjacency and incident
  // through pread windows.
  const auto& offsets_section = header.sections[kSectionOffsets];
  const auto& edges_section = header.sections[kSectionEdges];
  const std::span<const uint64_t> offsets(
      reinterpret_cast<const uint64_t*>(file.data() + offsets_section.offset),
      offsets_section.bytes / 8);
  const std::span<const Edge> edges(
      reinterpret_cast<const Edge*>(file.data() + edges_section.offset),
      edges_section.bytes / sizeof(Edge));
  const uint64_t adj_offset = header.sections[kSectionAdjacency].offset;
  const uint64_t inc_offset = header.sections[kSectionIncident].offset;
  const CsrSlotReader pread_slots = [&](uint64_t begin, uint64_t end,
                                        CsrSlotWindow* window) -> Status {
    if (CancellationRequested(options.cancel)) {
      return options.cancel->ToStatus();
    }
    if (window->adjacency_buffer == nullptr) {
      window->adjacency_buffer =
          std::make_unique_for_overwrite<NodeId[]>(kCsrWindowSlots + 1);
      window->incident_buffer =
          std::make_unique_for_overwrite<EdgeId[]>(kCsrWindowSlots + 1);
    }
    const uint64_t count = end - begin;
    EDGESHED_RETURN_IF_ERROR(PreadFully(
        fd, reinterpret_cast<char*>(window->adjacency_buffer.get()),
        sizeof(NodeId) * count, adj_offset + sizeof(NodeId) * begin, path));
    EDGESHED_RETURN_IF_ERROR(PreadFully(
        fd, reinterpret_cast<char*>(window->incident_buffer.get()),
        sizeof(EdgeId) * count, inc_offset + sizeof(EdgeId) * begin, path));
    window->adjacency = {window->adjacency_buffer.get(), count};
    window->incident = {window->incident_buffer.get(), count};
    return Status::OK();
  };
  return ValidateCsr(
      offsets, header.sections[kSectionAdjacency].bytes / sizeof(NodeId),
      header.sections[kSectionIncident].bytes / sizeof(EdgeId), edges,
      &pread_slots, threads);
}

/// An owned copy of a mapped section, copied in chunks on the worker pool:
/// the page faults on the mapping and the copy itself spread over the
/// threads instead of running on the loading thread alone.
template <typename T>
std::vector<T> CopySection(std::span<const T> section, int threads) {
  std::vector<T> out(section.size());
  constexpr uint64_t kGrain = (uint64_t{1} << 18) / sizeof(T);  // 256 KiB
  ParallelFor(
      0, section.size(),
      [&](uint64_t begin, uint64_t end) {
        std::memcpy(out.data() + begin, section.data() + begin,
                    (end - begin) * sizeof(T));
      },
      threads, kGrain);
  return out;
}

StatusOr<LoadedGraph> LoadSnapshotV3(std::shared_ptr<const MappedFile> file,
                                     const IngestOptions& options,
                                     const std::string& path) {
  EDGESHED_ASSIGN_OR_RETURN(
      SnapshotHeader header,
      DecodeSnapshotHeader(file->data(), file->size(), path));
  if (CancellationRequested(options.cancel)) {
    return options.cancel->ToStatus();
  }
  if (options.verify_checksums) {
    // Chunk CRCs and ValidateCsr's content checks, read through bounded
    // pread buffers, for both load modes: the mapping stays cold for a
    // zero-copy load, and a copy load copies only proven bytes. The
    // FromCsrView/FromCsrParts below then only re-run the O(n) shape checks.
    EDGESHED_RETURN_IF_ERROR(
        VerifySnapshotStreamed(path, *file, header, options));
  }
  if (CancellationRequested(options.cancel)) {
    return options.cancel->ToStatus();
  }

  // Section pointers are aligned for their element types: the mapping base
  // is page-aligned and section offsets are page_align (>= 8) multiples.
  const auto section_ptr = [&](int s) {
    return file->data() + header.sections[static_cast<size_t>(s)].offset;
  };
  const auto section_count = [&](int s, uint64_t elem_bytes) {
    return header.sections[static_cast<size_t>(s)].bytes / elem_bytes;
  };
  const std::span<const uint64_t> offsets(
      reinterpret_cast<const uint64_t*>(section_ptr(kSectionOffsets)),
      section_count(kSectionOffsets, 8));
  const std::span<const NodeId> adjacency(
      reinterpret_cast<const NodeId*>(section_ptr(kSectionAdjacency)),
      section_count(kSectionAdjacency, 4));
  const std::span<const EdgeId> incident(
      reinterpret_cast<const EdgeId*>(section_ptr(kSectionIncident)),
      section_count(kSectionIncident, 8));
  const std::span<const Edge> edges(
      reinterpret_cast<const Edge*>(section_ptr(kSectionEdges)),
      section_count(kSectionEdges, sizeof(Edge)));

  std::vector<uint64_t> original_ids;
  if (header.sections[static_cast<size_t>(kSectionOriginalIds)].bytes != 0) {
    const std::span<const uint64_t> ids(
        reinterpret_cast<const uint64_t*>(section_ptr(kSectionOriginalIds)),
        section_count(kSectionOriginalIds, 8));
    original_ids.assign(ids.begin(), ids.end());
  }

  if (options.mmap) {
    Graph::CsrView view{offsets, adjacency, incident, edges,
                        std::move(file)};
    EDGESHED_ASSIGN_OR_RETURN(Graph graph,
                              Graph::FromCsrView(std::move(view)));
    return LoadedGraph{std::move(graph), std::move(original_ids)};
  }
  file->AdviseSequential();
  EDGESHED_ASSIGN_OR_RETURN(
      Graph graph,
      Graph::FromCsrParts(CopySection(offsets, options.threads),
                          CopySection(adjacency, options.threads),
                          CopySection(incident, options.threads),
                          CopySection(edges, options.threads)));
  return LoadedGraph{std::move(graph), std::move(original_ids)};
}

/// The option checks both writers make for a graph of `num_nodes`
/// vertices. Returns the original-id table to embed: an identity remap
/// carries no information, so it comes back empty, which keeps the file
/// smaller and byte-identical to one built by the out-of-core converter
/// (it always drops identity tables).
StatusOr<std::span<const uint64_t>> CheckSnapshotOptions(
    const SnapshotOptions& options, uint64_t num_nodes) {
  if (options.version != 3) {
    return Status::InvalidArgument(StrFormat(
        "unsupported snapshot version %u (only 3 is written)",
        options.version));
  }
  if (!std::has_single_bit(options.page_align) || options.page_align < 8 ||
      options.page_align > (uint64_t{1} << 30)) {
    return Status::InvalidArgument(
        "snapshot page_align must be a power of two in [8, 1 GiB]");
  }
  if (options.chunk_bytes < (uint64_t{1} << 12) ||
      options.chunk_bytes > (uint64_t{1} << 30)) {
    return Status::InvalidArgument(
        "snapshot chunk_bytes must be in [4 KiB, 1 GiB]");
  }
  if (!options.original_ids.empty() &&
      options.original_ids.size() != num_nodes) {
    return Status::InvalidArgument(
        "original_ids size disagrees with the node count");
  }
  for (size_t i = 0; i < options.original_ids.size(); ++i) {
    if (options.original_ids[i] != i) return options.original_ids;
  }
  return std::span<const uint64_t>{};
}

/// G' = (V, kept) as WriteKeptSnapshot emits it: the offsets section and a
/// transpose index of each vertex's lower neighbours, but no adjacency or
/// incident array. Vertex x's slots hold, in edge-id order, its lower
/// neighbours (kept edges {u, x}, u < x: lower[lower_begin[x],
/// lower_begin[x + 1])) and then its upper ones (kept edges {x, v}, v > x:
/// the consecutive ids from offsets[x] - lower_begin[x]) — the order
/// Graph::FromEdges writes.
struct KeptCsr {
  /// A lower neighbour u of some vertex x and the id of edge {u, x}.
  struct Lower {
    uint32_t id;
    NodeId u;
  };
  std::span<const Edge> kept;
  std::vector<uint64_t> offsets;      // n + 1, the offsets section
  std::vector<uint32_t> lower_begin;  // n + 1
  std::vector<Lower> lower;           // |kept|, grouped by upper endpoint
};

/// Counts degrees and builds the transpose index in two serial passes over
/// `kept` (a split counting scatter ran slower at 2 threads: the scatter's
/// random writes do not scale); InvalidArgument naming the first edge that
/// is not canonical, in range and above its predecessor.
StatusOr<KeptCsr> BuildKeptCsr(uint64_t num_nodes,
                               std::span<const Edge> kept) {
  if (kept.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "kept snapshot edge count does not fit 32-bit ids");
  }
  KeptCsr csr;
  csr.kept = kept;
  // Counts first: offsets[x + 1] holds x's upper degree and
  // lower_begin[x + 1] its lower degree until the prefix sums below.
  csr.offsets.assign(num_nodes + 1, 0);
  csr.lower_begin.assign(num_nodes + 1, 0);
  for (uint64_t i = 0; i < kept.size(); ++i) {
    const Edge& e = kept[i];
    if (e.u >= e.v || e.v >= num_nodes || (i > 0 && !(kept[i - 1] < e))) {
      return Status::InvalidArgument(StrFormat(
          "kept edge %llu {%u, %u} is not canonical, below %llu and above "
          "the edge before it",
          static_cast<unsigned long long>(i), e.u, e.v,
          static_cast<unsigned long long>(num_nodes)));
    }
    ++csr.offsets[e.u + 1];
    ++csr.lower_begin[e.v + 1];
  }
  for (uint64_t x = 0; x < num_nodes; ++x) {
    const uint32_t lower_degree = csr.lower_begin[x + 1];
    csr.lower_begin[x + 1] += csr.lower_begin[x];
    csr.offsets[x + 1] += csr.offsets[x] + lower_degree;
  }
  // Scanning ids ascending lists each vertex's lower neighbours ascending.
  std::vector<uint32_t> next(csr.lower_begin.begin(),
                             csr.lower_begin.end() - 1);
  csr.lower.resize(kept.size());
  for (uint64_t i = 0; i < kept.size(); ++i) {
    const Edge& e = kept[i];
    csr.lower[next[e.v]++] = {static_cast<uint32_t>(i), e.u};
  }
  return csr;
}

/// Adjacency (kIds false: neighbour ids) or incident (kIds true: edge ids)
/// entries of slots [begin, end) into `out`.
template <bool kIds, typename T>
void FillSlots(const KeptCsr& csr, uint64_t begin, uint64_t end, T* out) {
  const std::vector<uint64_t>& offsets = csr.offsets;
  uint64_t x = static_cast<uint64_t>(
      std::upper_bound(offsets.begin(), offsets.end(), begin) -
      offsets.begin() - 1);
  for (uint64_t s = begin; s < end; ++x) {
    const uint64_t vertex_end = std::min(offsets[x + 1], end);
    if (s >= vertex_end) continue;  // no slot of x left in range
    const uint64_t lower = csr.lower_begin[x + 1] - csr.lower_begin[x];
    uint64_t j = s - offsets[x];
    for (; j < lower && s < vertex_end; ++j, ++s) {
      const KeptCsr::Lower& entry = csr.lower[csr.lower_begin[x] + j];
      *out++ = static_cast<T>(kIds ? entry.id : entry.u);
    }
    for (uint64_t id = offsets[x] - csr.lower_begin[x] + (j - lower);
         s < vertex_end; ++s, ++id) {
      *out++ = static_cast<T>(kIds ? id : csr.kept[id].v);
    }
  }
}

/// Bytes [begin, end) of a slot section of T entries, through an aligned
/// stack batch so any byte range (chunks need not split entries) comes out
/// whole.
template <bool kIds, typename T>
void FillSlotBytes(const KeptCsr& csr, uint64_t begin, uint64_t end,
                   char* out) {
  constexpr uint64_t kBatch = 1024;
  T batch[kBatch];
  for (uint64_t e = begin / sizeof(T); e * sizeof(T) < end;) {
    const uint64_t e_end =
        std::min(e + kBatch, (end + sizeof(T) - 1) / sizeof(T));
    FillSlots<kIds>(csr, e, e_end, batch);
    const uint64_t lo = std::max(begin, e * sizeof(T));
    const uint64_t hi = std::min(end, e_end * sizeof(T));
    std::memcpy(out,
                reinterpret_cast<const char*>(batch) + (lo - e * sizeof(T)),
                hi - lo);
    out += hi - lo;
    e = e_end;
  }
}

/// The bytes of a section payload held in memory.
template <typename T>
std::span<const char> Bytes(std::span<const T> values) {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

/// File bytes [begin, end) of the data region: bytes [lo, hi) of section s
/// come from `section(s, lo, hi, out)`, and the padding between sections
/// is zeroed.
template <typename Section>
void FillData(const SnapshotHeader& header, uint64_t begin, uint64_t end,
              char* out, const Section& section) {
  uint64_t pos = begin;
  for (int s = 0; s < kSnapshotSectionCount && pos < end; ++s) {
    const auto& placed = header.sections[static_cast<size_t>(s)];
    const uint64_t placed_end = placed.offset + placed.bytes;
    if (placed.bytes == 0 || placed_end <= pos) continue;
    if (placed.offset >= end) break;
    if (pos < placed.offset) {
      std::memset(out + (pos - begin), 0, placed.offset - pos);
      pos = placed.offset;
    }
    const uint64_t lo = pos - placed.offset;
    const uint64_t hi = std::min(placed_end, end) - placed.offset;
    section(s, lo, hi, out + (pos - begin));
    pos += hi - lo;
  }
  if (pos < end) std::memset(out + (pos - begin), 0, end - pos);
}

/// Bytes a writer worker fills, checksums and writes at a time: the buffer
/// stays in L2 between the fill and the CRC.
constexpr uint64_t kWritePieceBytes = uint64_t{256} << 10;

/// Writes exactly `len` bytes at `offset`, retrying short writes; returns 0
/// or the errno of the failed write.
int PwriteFully(int fd, const char* data, uint64_t len, uint64_t offset) {
  while (len > 0) {
    const ssize_t wrote = ::pwrite(fd, data, static_cast<size_t>(len),
                                   static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    data += wrote;
    len -= static_cast<uint64_t>(wrote);
    offset += static_cast<uint64_t>(wrote);
  }
  return 0;
}

/// Writes the snapshot `header` lays out at `path`, its sections filled by
/// `section` as FillData calls it: the write path of both in-memory
/// writers. Workers on the pool pull `chunk_bytes` chunks of the data
/// region in turn and fill each piece by piece through one buffer; a piece
/// is folded into its chunk's CRC from memory and pwritten at its offset,
/// so the data region is never whole in memory and never read back. The
/// header goes last. The gap between the header and the data region stays
/// a hole, which reads as zeros.
template <typename Section>
Status WriteSnapshotSections(SnapshotHeader header, const std::string& path,
                             const Section& section) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s for writing: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  const uint64_t data_start = header.DataStart();
  const uint64_t file_bytes = header.FileBytes();
  const uint64_t num_chunks = header.chunk_crcs.size();
  const int threads = DefaultThreadCount();
  std::atomic<uint64_t> next_chunk{0};
  std::atomic<int> write_errno{0};
  ParallelForEach(
      0, std::min<uint64_t>(static_cast<uint64_t>(threads), num_chunks),
      [&](uint64_t) {
        const uint64_t buf_bytes =
            std::min<uint64_t>(header.chunk_bytes, kWritePieceBytes);
        const auto buf = std::make_unique_for_overwrite<char[]>(buf_bytes);
        for (;;) {
          const uint64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= num_chunks ||
              write_errno.load(std::memory_order_relaxed) != 0) {
            return;
          }
          const uint64_t chunk_begin = data_start + c * header.chunk_bytes;
          const uint64_t chunk_end =
              std::min(chunk_begin + header.chunk_bytes, file_bytes);
          uint32_t state = kCrc32Init;
          for (uint64_t pos = chunk_begin; pos < chunk_end;) {
            const uint64_t len = std::min(buf_bytes, chunk_end - pos);
            FillData(header, pos, pos + len, buf.get(), section);
            state = Crc32Update(state, buf.get(), len);
            if (const int err = PwriteFully(fd, buf.get(), len, pos); err) {
              write_errno.store(err, std::memory_order_relaxed);
              return;
            }
            pos += len;
          }
          header.chunk_crcs[c] = Crc32Finalize(state);
        }
      },
      threads, /*grain=*/1);
  int err = write_errno.load();
  if (err == 0) {
    const std::string encoded = EncodeSnapshotHeader(header);
    err = PwriteFully(fd, encoded.data(), encoded.size(), 0);
  }
  if (err != 0) {
    return Status::IOError(StrFormat("write failed: %s: %s", path.c_str(),
                                     std::strerror(err)));
  }
  return Status::OK();
}

}  // namespace

Status SaveBinaryGraph(const Graph& graph, const std::string& path,
                       const SnapshotOptions& options) {
  EDGESHED_ASSIGN_OR_RETURN(const std::span<const uint64_t> original_ids,
                            CheckSnapshotOptions(options, graph.NumNodes()));
  SnapshotHeader header = PlanSnapshotLayout(
      graph.NumNodes(), graph.NumEdges(), !original_ids.empty(),
      options.page_align, options.chunk_bytes);

  // The empty graph's owned storage has no offsets array, but the section
  // still carries the single leading 0 so loaded shape checks hold.
  static constexpr uint64_t kZeroOffset[1] = {0};
  const std::span<const uint64_t> offsets = graph.RawOffsets();
  const std::span<const char> payloads[kSnapshotSectionCount] = {
      Bytes(offsets.empty() ? std::span<const uint64_t>(kZeroOffset)
                            : offsets),
      Bytes(graph.RawAdjacency()),
      Bytes(graph.RawIncident()),
      Bytes(graph.edges()),
      Bytes(original_ids),
  };
  return WriteSnapshotSections(
      std::move(header), path,
      [&](int s, uint64_t lo, uint64_t hi, char* out) {
        std::memcpy(out, payloads[s].data() + lo, hi - lo);
      });
}

Status WriteKeptSnapshot(uint64_t num_nodes, std::span<const Edge> kept,
                         const std::string& path,
                         const SnapshotOptions& options) {
  EDGESHED_ASSIGN_OR_RETURN(const std::span<const uint64_t> original_ids,
                            CheckSnapshotOptions(options, num_nodes));
  EDGESHED_ASSIGN_OR_RETURN(const KeptCsr csr, BuildKeptCsr(num_nodes, kept));
  SnapshotHeader header =
      PlanSnapshotLayout(num_nodes, kept.size(), !original_ids.empty(),
                         options.page_align, options.chunk_bytes);
  const std::span<const char> copied[kSnapshotSectionCount] = {
      Bytes(std::span<const uint64_t>(csr.offsets)), {}, {}, Bytes(kept),
      Bytes(original_ids)};
  return WriteSnapshotSections(
      std::move(header), path,
      [&](int s, uint64_t lo, uint64_t hi, char* out) {
        if (s == kSectionAdjacency) {
          FillSlotBytes<false, NodeId>(csr, lo, hi, out);
        } else if (s == kSectionIncident) {
          FillSlotBytes<true, EdgeId>(csr, lo, hi, out);
        } else {
          std::memcpy(out, copied[s].data() + lo, hi - lo);
        }
      });
}

Status WriteKeptSnapshot(const Graph& parent,
                         std::span<const EdgeId> kept_ids,
                         const std::string& path,
                         const SnapshotOptions& options) {
  std::vector<EdgeId> sorted;
  if (!std::is_sorted(kept_ids.begin(), kept_ids.end())) {
    sorted.assign(kept_ids.begin(), kept_ids.end());
    RadixSortWords(&sorted);
    kept_ids = sorted;
  }
  std::vector<Edge> kept(kept_ids.size());
  for (size_t i = 0; i < kept_ids.size(); ++i) {
    if (kept_ids[i] >= parent.NumEdges()) {
      return Status::InvalidArgument(StrFormat(
          "kept edge id %llu out of range (%llu edges)",
          static_cast<unsigned long long>(kept_ids[i]),
          static_cast<unsigned long long>(parent.NumEdges())));
    }
    kept[i] = parent.edge(kept_ids[i]);
  }
  return WriteKeptSnapshot(parent.NumNodes(), kept, path, options);
}

StatusOr<LoadedGraph> LoadSnapshot(const std::string& path,
                                   const IngestOptions& options) {
  EDGESHED_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                            MappedFile::Open(path));
  if (file->size() < 8) {
    return Status::InvalidArgument("not an edgeshed binary graph: " + path);
  }
  if (std::memcmp(file->data(), kSnapshotMagicV3, 8) == 0) {
    return LoadSnapshotV3(std::move(file), options, path);
  }
  EDGESHED_RETURN_IF_ERROR(
      RejectRetiredFormat(std::string_view(file->data(), 8), path));
  return Status::InvalidArgument("not an edgeshed binary graph: " + path);
}

}  // namespace edgeshed::graph
