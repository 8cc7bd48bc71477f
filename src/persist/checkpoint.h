// Snapshot checkpoints and the manifest commit protocol.
//
// A checkpoint file serializes one published cube state bit-exactly:
// the dictionaries (RCU versions flattened to per-dimension value
// lists), every cell's coordinates in cell-id order, and the sketch
// columns through the lossless CRC-framed column codec
// (core/compressed_sketch.h). Replaying the cells in stored order
// through CubeStore::ApplyDeltas reconstructs the store — same cell ids,
// same postings, same column bits.
//
// The MANIFEST names the live checkpoint and WAL files and is the
// single commit point: it is written to a temp file, fsynced, and
// atomically renamed over the old manifest. A crash anywhere in a
// checkpoint cycle leaves either the old manifest (old checkpoint + old
// WAL, both still complete) or the new one — never a torn in-between.
// Files not named by the manifest are garbage, deleted on the next
// successful commit.
#ifndef MSKETCH_PERSIST_CHECKPOINT_H_
#define MSKETCH_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/compressed_sketch.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "persist/env.h"

namespace msketch {

/// A decoded checkpoint.
struct CheckpointData {
  uint64_t epoch = 0;
  size_t num_dims = 0;
  int k = 0;
  std::vector<std::vector<std::string>> dict_values;  // per dimension
  std::vector<CubeCoords> cell_coords;                // cell-id order
  DecodedSketchColumns columns;                       // parallel to coords
  /// KLL side column (the multi-backend router's dual-write state).
  /// When enabled, `kll_cells` parallels `cell_coords` — one rank
  /// sketch per cell, restored bit-exactly.
  bool kll_enabled = false;
  int kll_k = 0;
  std::vector<KllSketch> kll_cells;
};

/// Serializes `store` + `dicts` as a complete checkpoint image for
/// `epoch` — magic, body, and masked-CRC trailer, byte-identical to
/// the file WriteCheckpoint produces. Replication ships this image in
/// chunks; any chunking reassembles to a decodable checkpoint because
/// the trailer CRC covers the whole body.
Status EncodeCheckpointImage(uint64_t epoch, const CubeStore& store,
                             const std::vector<Dictionary>& dicts,
                             std::vector<uint8_t>* out);

/// Decodes and fully validates a checkpoint image (magic, structure,
/// CRC) — the in-memory twin of ReadCheckpoint.
Result<CheckpointData> DecodeCheckpointImage(const std::vector<uint8_t>& image);

/// Writes `store` + `dicts` as the checkpoint for `epoch` to `path`,
/// fsynced. The file only becomes live when a manifest referencing it
/// commits.
Status WriteCheckpoint(Env* env, const std::string& path, uint64_t epoch,
                       const CubeStore& store,
                       const std::vector<Dictionary>& dicts);

/// Reads and fully validates a checkpoint file (magic, structure, CRC).
Result<CheckpointData> ReadCheckpoint(Env* env, const std::string& path);

/// The durable directory's root pointer.
struct Manifest {
  uint64_t checkpoint_epoch = 0;
  std::string checkpoint_file;  // empty = no checkpoint (fresh log)
  std::string wal_file;
  uint64_t wal_seq = 0;
};

constexpr char kManifestName[] = "MANIFEST";

/// Commits `manifest` atomically: temp write + fsync + rename + dir
/// fsync.
Status WriteManifest(Env* env, const std::string& dir,
                     const Manifest& manifest);

/// Reads and validates `dir`'s manifest.
Result<Manifest> ReadManifest(Env* env, const std::string& dir);

}  // namespace msketch

#endif  // MSKETCH_PERSIST_CHECKPOINT_H_
