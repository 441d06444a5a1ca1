// wal_inspect — offline inspector for CrowdWeb durable-store files.
//
// Dumps WAL segments record by record (offset, seq, epoch, event count)
// while verifying every checksum, and prints checkpoint headers. Point
// it at a store directory to walk everything in order, or at individual
// files. `-v` additionally prints each event inside each WAL record.
//
// Exit code: 0 = everything clean, 1 = a torn tail was found (recovery
// would truncate it), 2 = corruption or unreadable input (recovery
// would refuse).
//
// Run:  ./wal_inspect [-v] <store-dir | wal-*.log | checkpoint-*.ckpt>...

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "data/dataset_io.hpp"
#include "store/checkpoint.hpp"
#include "store/wal.hpp"

using namespace crowdweb;
namespace fs = std::filesystem;

namespace {

// Worst outcome seen so far (0 clean, 1 torn, 2 corrupt).
int g_exit = 0;

void note(int severity) { g_exit = std::max(g_exit, severity); }

void print_events(const store::WalRecord& record) {
  for (const ingest::IngestEvent& event : record.events) {
    std::printf("      user %u  category %u  (%.5f, %.5f)  t=%lld\n", event.user,
                static_cast<unsigned>(event.category), event.position.lat,
                event.position.lon, static_cast<long long>(event.timestamp));
  }
}

void inspect_wal(const std::string& path, std::uint64_t expected_seq, bool verbose) {
  const auto bytes = data::read_file(path);
  if (!bytes) {
    std::printf("%s: UNREADABLE (%s)\n", path.c_str(), bytes.status().message().c_str());
    note(2);
    return;
  }
  // Tolerant scan first: shows how recovery would treat this file as the
  // final segment of the log.
  const auto scan = store::scan_wal_segment(*bytes, path, expected_seq,
                                            /*allow_torn_tail=*/true);
  if (!scan) {
    std::printf("%s: CORRUPT — %s\n", path.c_str(), scan.status().message().c_str());
    note(2);
    return;
  }
  std::printf("%s: segment %llu, %zu bytes, %zu record(s)\n", path.c_str(),
              static_cast<unsigned long long>(scan->segment_seq), bytes->size(),
              scan->records.size());
  std::size_t offset = store::kSegmentHeaderBytes;
  for (const store::WalRecord& record : scan->records) {
    const std::size_t framed = store::encode_wal_record(record).size();
    std::printf("  @%-10zu seq %-8llu epoch %-6llu %5zu event(s)  crc ok\n", offset,
                static_cast<unsigned long long>(record.seq),
                static_cast<unsigned long long>(record.epoch), record.events.size());
    if (verbose) print_events(record);
    offset += framed;
  }
  if (scan->torn_bytes > 0) {
    std::printf("  @%-10zu TORN TAIL: %zu byte(s) would be truncated by recovery\n",
                scan->valid_bytes, scan->torn_bytes);
    note(1);
  }
}

void inspect_checkpoint(const std::string& path) {
  const auto bytes = data::read_file(path);
  if (!bytes) {
    std::printf("%s: UNREADABLE (%s)\n", path.c_str(), bytes.status().message().c_str());
    note(2);
    return;
  }
  const auto checkpoint = store::decode_checkpoint(*bytes, path);
  if (!checkpoint) {
    std::printf("%s: CORRUPT — %s\n", path.c_str(), checkpoint.status().message().c_str());
    note(2);
    return;
  }
  std::printf(
      "%s: checkpoint %llu, %zu bytes, crc ok\n"
      "  epoch %llu, covers WAL through record %llu\n"
      "  %zu interned name(s), %zu venue(s), %zu check-in(s) (%llu from the base "
      "corpus), %zu touched user(s), next guest id %u\n",
      path.c_str(), static_cast<unsigned long long>(checkpoint->seq), bytes->size(),
      static_cast<unsigned long long>(checkpoint->epoch),
      static_cast<unsigned long long>(checkpoint->last_record_seq),
      checkpoint->names.size(), checkpoint->venues.size(), checkpoint->checkins.size(),
      static_cast<unsigned long long>(checkpoint->base_checkin_count),
      checkpoint->touched_users.size(), checkpoint->next_guest_id);
}

void inspect_path(const std::string& path, bool verbose) {
  const std::string name = fs::path(path).filename().string();
  if (const auto seq = store::parse_wal_segment_name(name)) {
    inspect_wal(path, *seq, verbose);
  } else if (store::parse_checkpoint_file_name(name)) {
    inspect_checkpoint(path);
  } else {
    std::printf("%s: not a store file (expected wal-*.log or checkpoint-*.ckpt)\n",
                path.c_str());
    note(2);
  }
}

/// A sharded deployment's store root holds one subdirectory per shard
/// ("<root>/shard-<k>", see shard::ShardRouterConfig::worker).
bool is_shard_dir_name(const std::string& name) {
  if (name.rfind("shard-", 0) != 0 || name.size() == 6) return false;
  return std::all_of(name.begin() + 6, name.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

void inspect_dir(const std::string& dir, bool verbose) {
  std::vector<std::string> files;
  std::vector<std::string> shard_dirs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (store::parse_wal_segment_name(name) || store::parse_checkpoint_file_name(name))
      files.push_back(entry.path().string());
    else if (entry.is_directory() && is_shard_dir_name(name))
      shard_dirs.push_back(entry.path().string());
  }
  if (ec) {
    std::printf("%s: cannot list (%s)\n", dir.c_str(), ec.message().c_str());
    note(2);
    return;
  }
  std::sort(files.begin(), files.end());
  std::sort(shard_dirs.begin(), shard_dirs.end());
  if (files.empty() && shard_dirs.empty()) {
    std::printf("%s: no store files\n", dir.c_str());
    return;
  }
  for (const std::string& file : files) inspect_path(file, verbose);
  // Sharded layout: recurse one level, one header per shard.
  for (const std::string& shard_dir : shard_dirs) {
    std::printf("=== %s ===\n", shard_dir.c_str());
    inspect_dir(shard_dir, verbose);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: %s [-v] <store-dir | wal-*.log | checkpoint-*.ckpt>...\n",
                  argv[0]);
      return 0;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: %s [-v] <store-dir | wal-*.log | checkpoint-*.ckpt>...\n",
                 argv[0]);
    return 2;
  }
  for (const std::string& path : paths) {
    if (fs::is_directory(path))
      inspect_dir(path, verbose);
    else
      inspect_path(path, verbose);
  }
  return g_exit;
}
