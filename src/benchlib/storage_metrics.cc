#include "benchlib/storage_metrics.h"

#include <sys/resource.h>
#include <unistd.h>

#include "index/inverted_index.h"
#include "table/storage_events.h"

namespace tj {

size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long vm_pages = 0;
  unsigned long rss_pages = 0;
  const int parsed = std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (parsed != 2) return 0;
  return static_cast<size_t>(rss_pages) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

namespace {

/// The peak to report: the bench's phase-sampled value when set (both
/// benches fill the field before reporting, keeping the printed summary
/// and the JSON tail identical), a fresh sample as a fallback otherwise.
size_t ReportedPeakRss(const StorageMetrics& m) {
  return m.peak_rss_bytes != 0 ? m.peak_rss_bytes : PeakRssBytes();
}

}  // namespace

void StorageMetrics::MeasureColumn(const Column& column) {
  const NgramInvertedIndex index = NgramInvertedIndex::Build(column);
  index_total_postings += index.TotalPostings();
  index_memory_bytes += index.MemoryBytes();
}

void PrintStorageSummary(const StorageMetrics& m) {
  std::printf(
      "storage: cells %zu bytes (%zu spilled); peak rss %zu bytes; index "
      "%zu postings / %zu bytes\n",
      m.cells_bytes, m.spilled_bytes, ReportedPeakRss(m),
      m.index_total_postings, m.index_memory_bytes);
  const StorageEventCounters events = GetStorageEventCounters();
  if (events.heap_fallback_columns > 0 || events.spill_errors_recovered > 0) {
    std::printf(
        "storage degradation: %llu column(s) fell back to heap, %llu spill "
        "error(s) recovered\n",
        static_cast<unsigned long long>(events.heap_fallback_columns),
        static_cast<unsigned long long>(events.spill_errors_recovered));
  }
}

void WriteStorageJsonTail(std::FILE* f, const StorageMetrics& m) {
  // The degradation counters are sampled at write time from the process-wide
  // storage event counters, so every bench that ends with this tail reports
  // them without plumbing (0/0 in a healthy run).
  const StorageEventCounters events = GetStorageEventCounters();
  std::fprintf(
      f,
      "  \"cells_bytes\": %zu,\n"
      "  \"spilled_bytes\": %zu,\n"
      "  \"peak_rss_bytes\": %zu,\n"
      "  \"index_total_postings\": %zu,\n"
      "  \"index_memory_bytes\": %zu,\n"
      "  \"heap_fallback_columns\": %llu,\n"
      "  \"spill_errors_recovered\": %llu\n"
      "}\n",
      m.cells_bytes, m.spilled_bytes, ReportedPeakRss(m),
      m.index_total_postings, m.index_memory_bytes,
      static_cast<unsigned long long>(events.heap_fallback_columns),
      static_cast<unsigned long long>(events.spill_errors_recovered));
}

}  // namespace tj
