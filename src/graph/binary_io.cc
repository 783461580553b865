#include "graph/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/mapped_file.h"
#include "common/parallel.h"
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

}  // namespace

Status SaveBinaryGraph(const Graph& graph, const std::string& path,
                       const SnapshotOptions& options) {
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
      options.original_ids.size() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "original_ids size disagrees with the node count");
  }
  // An identity remap carries no information; leaving it out keeps the file
  // smaller and makes the snapshot byte-identical to one built by the
  // out-of-core converter, which always drops identity tables.
  bool identity_ids = true;
  for (size_t i = 0; i < options.original_ids.size(); ++i) {
    if (options.original_ids[i] != i) {
      identity_ids = false;
      break;
    }
  }
  const std::span<const uint64_t> original_ids =
      identity_ids ? std::span<const uint64_t>{} : options.original_ids;

  SnapshotHeader header = PlanSnapshotLayout(
      graph.NumNodes(), graph.NumEdges(), !original_ids.empty(),
      options.page_align, options.chunk_bytes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);

  // Placeholder header + padding; the real header (it needs the chunk CRCs
  // of the data we are about to write) is patched in afterwards.
  {
    const std::string zeros(header.DataStart(), '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }

  // The empty graph's owned storage has no offsets array, but the section
  // still carries the single leading 0 so loaded shape checks hold.
  static constexpr uint64_t kZeroOffset = 0;
  const auto offsets = graph.RawOffsets();
  const auto adjacency = graph.RawAdjacency();
  const auto incident = graph.RawIncident();
  const auto edges = graph.edges();
  const std::pair<const void*, uint64_t> payloads[kSnapshotSectionCount] = {
      offsets.empty()
          ? std::pair<const void*, uint64_t>{&kZeroOffset, sizeof(kZeroOffset)}
          : std::pair<const void*, uint64_t>{offsets.data(),
                                             offsets.size_bytes()},
      {adjacency.data(), adjacency.size_bytes()},
      {incident.data(), incident.size_bytes()},
      {edges.data(), edges.size_bytes()},
      {original_ids.data(), original_ids.size_bytes()},
  };
  uint64_t pos = header.DataStart();
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    const auto& section = header.sections[static_cast<size_t>(s)];
    if (section.bytes == 0) continue;
    if (section.offset > pos) {
      const std::string pad(section.offset - pos, '\0');
      out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    }
    out.write(static_cast<const char*>(payloads[s].first),
              static_cast<std::streamsize>(payloads[s].second));
    pos = section.offset + section.bytes;
  }
  out.close();
  if (!out) return Status::IOError("write failed: " + path);

  // Re-reads the freshly written (page-cached) data region to fill the
  // chunk CRC table, then patches the real header over the placeholder.
  return FinalizeSnapshotFile(path, std::move(header));
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
