#include "bdi/core/report_io.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <map>

#include "bdi/common/csv.h"
#include "bdi/common/string_util.h"

namespace bdi::core {

namespace {

// Row numbers in messages are 1-based CSV rows (row 1 is the header).
Result<int64_t> ParseInt(const std::string& text, const char* file,
                         size_t row) {
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(std::string(file) + " row " +
                                   std::to_string(row + 1) +
                                   ": not an integer: '" + text + "'");
  }
  return value;
}

Result<double> ParseDouble(const std::string& text, const char* file,
                           size_t row) {
  double value = 0.0;
  if (!ParseLeadingDouble(text, &value, nullptr)) {
    return Status::InvalidArgument(std::string(file) + " row " +
                                   std::to_string(row + 1) +
                                   ": not a number: '" + text + "'");
  }
  return value;
}

/// Round-trip text for a double: 17 significant digits parse back to the
/// same bits, so a reloaded view answers bitwise like the original.
std::string ExactDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Status RangeError(const char* file, size_t row, const char* what,
                  const std::string& text) {
  return Status::OutOfRange(std::string(file) + " row " +
                            std::to_string(row + 1) + ": " + what +
                            " out of range: " + text);
}

}  // namespace

Status SaveIntegration(const IntegrationReport& report,
                       const Dataset& dataset,
                       const std::string& directory) {
  // schema.csv
  {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"cluster", "name", "source", "attribute"});
    for (size_t c = 0; c < report.schema.clusters.size(); ++c) {
      for (const SourceAttr& sa : report.schema.clusters[c]) {
        rows.push_back({std::to_string(c), report.schema.cluster_names[c],
                        std::to_string(sa.source),
                        dataset.attr_name(sa.attr)});
      }
    }
    BDI_RETURN_IF_ERROR(WriteCsvFile(directory + "/schema.csv", rows));
  }
  // entities.csv
  {
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"record", "entity"});
    const std::vector<EntityId>& labels =
        report.linkage.clusters.label_of_record;
    for (size_t r = 0; r < labels.size(); ++r) {
      rows.push_back({std::to_string(r), std::to_string(labels[r])});
    }
    BDI_RETURN_IF_ERROR(WriteCsvFile(directory + "/entities.csv", rows));
  }
  // fused.csv + claims.csv
  {
    std::vector<std::vector<std::string>> fused;
    fused.push_back({"entity", "attribute_cluster", "value", "confidence"});
    std::vector<std::vector<std::string>> claims;
    claims.push_back({"entity", "attribute_cluster", "source", "value"});
    for (size_t i = 0; i < report.claims.items().size(); ++i) {
      const fusion::DataItem& item = report.claims.items()[i];
      fused.push_back({std::to_string(item.entity),
                       std::to_string(item.attr), report.fusion.chosen[i],
                       ExactDouble(report.fusion.confidence[i])});
      for (const fusion::Claim& claim : item.claims) {
        claims.push_back({std::to_string(item.entity),
                          std::to_string(item.attr),
                          std::to_string(claim.source), claim.value});
      }
    }
    BDI_RETURN_IF_ERROR(WriteCsvFile(directory + "/fused.csv", fused));
    BDI_RETURN_IF_ERROR(WriteCsvFile(directory + "/claims.csv", claims));
  }
  return Status::OK();
}

Result<IntegrationReport> LoadIntegration(const Dataset& dataset,
                                          const std::string& directory) {
  IntegrationReport report;
  report.stats = schema::AttributeStatistics::Compute(dataset);

  // schema.csv
  {
    BDI_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                         ReadCsvFile(directory + "/schema.csv"));
    if (rows.empty() ||
        rows[0] != std::vector<std::string>{"cluster", "name", "source",
                                            "attribute"}) {
      return Status::InvalidArgument("bad schema.csv header");
    }
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != 4) {
        return Status::InvalidArgument("bad schema.csv row " +
                                       std::to_string(r + 1));
      }
      BDI_ASSIGN_OR_RETURN(int64_t cluster,
                           ParseInt(rows[r][0], "schema.csv", r));
      BDI_ASSIGN_OR_RETURN(int64_t source,
                           ParseInt(rows[r][2], "schema.csv", r));
      // One cluster id per data row at most, so rows.size() bounds any
      // valid id; without this a corrupt id would drive a huge resize.
      if (cluster < 0 || static_cast<size_t>(cluster) > rows.size()) {
        return RangeError("schema.csv", r, "cluster id", rows[r][0]);
      }
      if (source < 0 ||
          static_cast<size_t>(source) >= dataset.num_sources()) {
        return RangeError("schema.csv", r, "source id", rows[r][2]);
      }
      std::optional<AttrId> attr = dataset.FindAttr(rows[r][3]);
      if (!attr.has_value()) {
        return Status::NotFound("attribute '" + rows[r][3] +
                                "' not in the corpus — wrong dataset?");
      }
      size_t c = static_cast<size_t>(cluster);
      if (report.schema.clusters.size() <= c) {
        report.schema.clusters.resize(c + 1);
        report.schema.cluster_names.resize(c + 1);
      }
      report.schema.cluster_names[c] = rows[r][1];
      SourceAttr sa{static_cast<SourceId>(source), *attr};
      report.schema.clusters[c].push_back(sa);
      report.schema.cluster_of[sa] = static_cast<int>(c);
    }
    report.normalizer =
        schema::ValueNormalizer::Fit(report.stats, report.schema);
  }

  // entities.csv
  {
    BDI_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                         ReadCsvFile(directory + "/entities.csv"));
    if (rows.empty() ||
        rows[0] != std::vector<std::string>{"record", "entity"}) {
      return Status::InvalidArgument("bad entities.csv header");
    }
    if (rows.size() - 1 != dataset.num_records()) {
      return Status::FailedPrecondition(
          "entities.csv covers " + std::to_string(rows.size() - 1) +
          " records but the corpus has " +
          std::to_string(dataset.num_records()));
    }
    report.linkage.clusters.label_of_record.assign(dataset.num_records(),
                                                   kInvalidEntity);
    EntityId max_label = -1;
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != 2) {
        return Status::InvalidArgument("bad entities.csv row " +
                                       std::to_string(r + 1));
      }
      BDI_ASSIGN_OR_RETURN(int64_t record,
                           ParseInt(rows[r][0], "entities.csv", r));
      BDI_ASSIGN_OR_RETURN(int64_t entity,
                           ParseInt(rows[r][1], "entities.csv", r));
      if (record < 0 ||
          static_cast<size_t>(record) >= dataset.num_records()) {
        return RangeError("entities.csv", r, "record id", rows[r][0]);
      }
      if (entity < kInvalidEntity ||
          entity > std::numeric_limits<EntityId>::max()) {
        return RangeError("entities.csv", r, "entity id", rows[r][1]);
      }
      report.linkage.clusters.label_of_record[record] =
          static_cast<EntityId>(entity);
      max_label = std::max(max_label, static_cast<EntityId>(entity));
    }
    report.linkage.clusters.num_clusters =
        static_cast<size_t>(max_label + 1);
  }

  // claims.csv grouped by (entity, attribute cluster).
  std::map<std::pair<EntityId, int>, std::vector<fusion::Claim>> claim_map;
  {
    BDI_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                         ReadCsvFile(directory + "/claims.csv"));
    if (rows.empty() ||
        rows[0] != std::vector<std::string>{"entity", "attribute_cluster",
                                            "source", "value"}) {
      return Status::InvalidArgument("bad claims.csv header");
    }
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != 4) {
        return Status::InvalidArgument("bad claims.csv row " +
                                       std::to_string(r + 1));
      }
      BDI_ASSIGN_OR_RETURN(int64_t entity,
                           ParseInt(rows[r][0], "claims.csv", r));
      BDI_ASSIGN_OR_RETURN(int64_t attr,
                           ParseInt(rows[r][1], "claims.csv", r));
      BDI_ASSIGN_OR_RETURN(int64_t source,
                           ParseInt(rows[r][2], "claims.csv", r));
      if (entity < 0 || entity > std::numeric_limits<EntityId>::max()) {
        return RangeError("claims.csv", r, "entity id", rows[r][0]);
      }
      if (attr < 0 || attr > std::numeric_limits<int>::max()) {
        return RangeError("claims.csv", r, "attribute cluster", rows[r][1]);
      }
      // Claim sources index per-source weight vectors downstream; an id
      // outside the corpus would corrupt any re-resolution.
      if (source < 0 ||
          static_cast<size_t>(source) >= dataset.num_sources()) {
        return RangeError("claims.csv", r, "source id", rows[r][2]);
      }
      claim_map[{static_cast<EntityId>(entity), static_cast<int>(attr)}]
          .push_back(fusion::Claim{static_cast<SourceId>(source),
                                   rows[r][3]});
    }
  }

  // fused.csv defines the item order.
  {
    BDI_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                         ReadCsvFile(directory + "/fused.csv"));
    if (rows.empty() ||
        rows[0] != std::vector<std::string>{"entity", "attribute_cluster",
                                            "value", "confidence"}) {
      return Status::InvalidArgument("bad fused.csv header");
    }
    report.claims.set_num_sources(dataset.num_sources());
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != 4) {
        return Status::InvalidArgument("bad fused.csv row " +
                                       std::to_string(r + 1));
      }
      BDI_ASSIGN_OR_RETURN(int64_t entity,
                           ParseInt(rows[r][0], "fused.csv", r));
      BDI_ASSIGN_OR_RETURN(int64_t attr,
                           ParseInt(rows[r][1], "fused.csv", r));
      BDI_ASSIGN_OR_RETURN(double confidence,
                           ParseDouble(rows[r][3], "fused.csv", r));
      if (entity < 0 || entity > std::numeric_limits<EntityId>::max()) {
        return RangeError("fused.csv", r, "entity id", rows[r][0]);
      }
      if (attr < 0 || attr > std::numeric_limits<int>::max()) {
        return RangeError("fused.csv", r, "attribute cluster", rows[r][1]);
      }
      fusion::DataItem item;
      item.entity = static_cast<EntityId>(entity);
      item.attr = static_cast<int>(attr);
      auto it = claim_map.find({item.entity, item.attr});
      if (it != claim_map.end()) {
        item.claims = it->second;
      }
      report.claims.AddItem(std::move(item));
      report.fusion.chosen.push_back(rows[r][2]);
      report.fusion.confidence.push_back(confidence);
    }
    report.fusion.source_accuracy.assign(dataset.num_sources(), 0.0);
  }
  return report;
}

}  // namespace bdi::core
