// The `yprov` command-line interface (paper: "the yProv command line
// interface (CLI), which provides a set of commands for invoking the
// RESTful APIs"). Implemented as a function so tests can drive it without
// spawning processes.
//
//   yprov validate <file.provjson>
//   yprov stats    <file.provjson>
//   yprov convert  <file.provjson> --to provn|dot|ttl|xml [--out <path>]
//   yprov diff     <a.provjson> <b.provjson>
//   yprov lineage  <file.provjson> <element-id> [--direction up|down] [--depth N]
//   yprov ingest   <store-dir> <name=file.provjson>...
//   yprov list     <store-dir>
//   yprov get      <store-dir> <name> [--element <id>]
//   yprov stats    --url <svc> <name>
//   yprov query    <store-dir> '<MATCH ...>' [--explain] [--page-size N]
//   yprov pack     <file> <out> [--codec lzss|rle|shuffle+lzss]
//   yprov unpack   <file> <out>
//   yprov serve    [--port N] [--threads K] [--data-dir DIR] ...
//
// The store commands (ingest, list, get, query) take `--url
// http://host:port` in place of the store dir. Either way they send
// the same REST requests — to an in-process service over the store dir, or
// to a running `yprov serve` — and print the same output. Each command
// declares its options; an undeclared one is an error.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace provml::cli {

/// Dispatches one invocation; returns the process exit code (0 = success).
/// All human-readable output goes to `out`, errors to `err`.
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// The usage text printed for `yprov help` and argument errors.
[[nodiscard]] std::string usage();

}  // namespace provml::cli
