// store_merge: unions run-store cache directories (harness/run_store.h).
// The gather step of a sharded sweep: each `--shard I/N` run fills its own
// --cache-dir store (one per host, or per CI job); merging them yields one
// store over which a plain bench run is fully warm and prints the tables.
//
// Usage:
//   store_merge <into> <from>... [--dry-run]
//
// Every valid source record absent from <into> is copied atomically, and a
// destination record that fails validation (torn write, bit rot) is
// replaced. Records already present and valid are compared byte-for-byte
// and skipped. A byte mismatch under the same key is a conflict — format
// or model drift, never two valid answers, since records are content-keyed
// — and the destination record wins. Exit status 1 when any conflict was
// seen or any write failed (the merge is then incomplete).
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "harness/run_store.h"

using namespace clusmt;

namespace {

void print(const char* label, const harness::MergeResult& r, bool dry_run) {
  std::printf(
      "%s: %llu scanned, %llu %s, %llu %s, %llu identical, %llu conflicts, "
      "%llu invalid, %llu failed%s\n",
      label, static_cast<unsigned long long>(r.scanned),
      static_cast<unsigned long long>(r.copied),
      dry_run ? "would copy" : "copied",
      static_cast<unsigned long long>(r.repaired),
      dry_run ? "would repair" : "repaired",
      static_cast<unsigned long long>(r.identical),
      static_cast<unsigned long long>(r.conflicts),
      static_cast<unsigned long long>(r.invalid),
      static_cast<unsigned long long>(r.failed), dry_run ? " [dry run]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: %s <into> <from>... [--dry-run]\n"
                 "Unions each <from> run store into <into>; the destination "
                 "wins conflicts.\n",
                 argv[0]);
    return 2;
  }
  const harness::MergeOptions options{
      .dry_run = args.get_bool("dry-run", false)};

  const std::string& into = args.positional()[0];
  harness::MergeResult total;
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& from = args.positional()[i];
    const harness::MergeResult r =
        harness::merge_run_store(into, from, options);
    print((from + " -> " + into).c_str(), r, options.dry_run);
    total.scanned += r.scanned;
    total.copied += r.copied;
    total.repaired += r.repaired;
    total.identical += r.identical;
    total.conflicts += r.conflicts;
    total.invalid += r.invalid;
    total.failed += r.failed;
  }
  if (args.positional().size() > 2) print("total", total, options.dry_run);
  return total.conflicts > 0 || total.failed > 0 ? 1 : 0;
}
