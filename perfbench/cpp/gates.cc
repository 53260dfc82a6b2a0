#include <cstdio>

#include "cpp/bench.h"

namespace perfbench {

using bdi::serve::JsonValue;

void Gates::Check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
  failures_.push_back(what);
}

void Gates::Record(Outcome* out) const {
  out->correct = passed();
  std::string list = "[";
  for (const std::string& f : failures_) {
    if (list.size() > 1) list += ",";
    list += JsonString(f);
  }
  out->Note("gate_failures", list + "]");
}

Outcome Aborted(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  Outcome out;
  out.correct = false;
  out.attempted = 1;
  out.failed = 1;
  out.Note("error", JsonString(status.ToString()));
  return out;
}

bool SameIntegration(const bdi::core::IntegrationReport& a,
                     const bdi::core::IntegrationReport& b) {
  return a.linkage.clusters.label_of_record ==
             b.linkage.clusters.label_of_record &&
         a.fusion.chosen == b.fusion.chosen &&
         a.fusion.confidence == b.fusion.confidence;
}

namespace {

bool IsNumber(const JsonValue* v, double expected) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber &&
         v->number == expected;
}

bool IsString(const JsonValue* v, const std::string& expected) {
  return v != nullptr && v->kind == JsonValue::Kind::kString &&
         v->string == expected;
}

bool IsBool(const JsonValue* v, bool expected) {
  return v != nullptr && v->kind == JsonValue::Kind::kBool &&
         v->boolean == expected;
}

bool SameFind(const JsonValue& response,
              const std::vector<bdi::serve::FindHit>& hits) {
  const JsonValue* array = response.Find("hits");
  if (array == nullptr || array->kind != JsonValue::Kind::kArray ||
      array->array.size() != hits.size()) {
    return false;
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    const JsonValue& hit = array->array[i];
    if (!IsNumber(hit.Find("cluster"), hits[i].cluster) ||
        !IsNumber(hit.Find("score"), hits[i].score) ||
        !IsString(hit.Find("text"), hits[i].text)) {
      return false;
    }
  }
  return true;
}

bool SameAsk(const JsonValue& response, const bdi::serve::AskAnswer& answer) {
  if (!IsBool(response.Find("found"), answer.found())) return false;
  if (!answer.found()) return response.Find("value") == nullptr;
  const JsonValue* support = response.Find("support");
  if (!IsString(response.Find("entity"), answer.entity_name) ||
      !IsNumber(response.Find("cluster"), answer.cluster) ||
      !IsString(response.Find("attribute"), answer.attribute) ||
      !IsString(response.Find("value"), answer.value) ||
      !IsNumber(response.Find("confidence"), answer.confidence) ||
      !IsNumber(response.Find("entity_match"), answer.entity_match) ||
      !IsNumber(response.Find("attribute_match"), answer.attribute_match) ||
      support == nullptr || support->kind != JsonValue::Kind::kArray ||
      support->array.size() != answer.support.size()) {
    return false;
  }
  for (size_t i = 0; i < answer.support.size(); ++i) {
    const JsonValue& claim = support->array[i];
    if (!IsString(claim.Find("source"), answer.support[i].source) ||
        !IsString(claim.Find("value"), answer.support[i].value) ||
        !IsBool(claim.Find("agrees"), answer.support[i].agrees)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ResponseMatchesSnapshot(const std::string& request,
                             const std::string& response,
                             const bdi::serve::Snapshot& snapshot,
                             uint64_t batches) {
  Result<bdi::serve::Request> parsed = bdi::serve::ParseRequest(request);
  Result<JsonValue> answer = bdi::serve::ParseJson(response);
  if (!parsed.ok() || !answer.ok() || !IsBool(answer->Find("ok"), true)) {
    return false;
  }
  switch (parsed->op) {
    case bdi::serve::RequestOp::kFind:
      return SameFind(*answer, snapshot.Find(parsed->entity,
                                             static_cast<size_t>(parsed->k)));
    case bdi::serve::RequestOp::kAsk:
      return SameAsk(*answer, snapshot.Ask(parsed->attribute, parsed->entity));
    case bdi::serve::RequestOp::kStats:
      return IsNumber(answer->Find("entities"),
                      static_cast<double>(snapshot.num_entities())) &&
             IsNumber(answer->Find("records"),
                      static_cast<double>(snapshot.num_records())) &&
             IsNumber(answer->Find("shards"),
                      static_cast<double>(snapshot.num_shards())) &&
             IsNumber(answer->Find("batches"), static_cast<double>(batches));
    default:
      return false;
  }
}

}  // namespace perfbench
