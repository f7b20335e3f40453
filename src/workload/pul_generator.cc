#include "workload/pul_generator.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "pul/apply.h"

namespace xupdate::workload {

namespace {

using label::Labeling;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

constexpr size_t kIdBlock = 1 << 20;  // per-producer id space stride

bool HasAttributeNamed(const Document& doc, NodeId element,
                       const std::string& name) {
  for (NodeId a : doc.attributes(element)) {
    if (doc.name(a) == name) return true;
  }
  return false;
}

}  // namespace

PulGenerator::PulGenerator(const Document& doc, const Labeling& labeling,
                           uint64_t seed)
    : doc_(doc), labeling_(labeling), rng_(seed) {}

PulGenerator::NodePools PulGenerator::CollectPools(const Document& doc) {
  NodePools pools;
  for (NodeId id : doc.AllNodesInOrder()) {
    switch (doc.type(id)) {
      case NodeType::kElement:
        if (doc.parent(id) != kInvalidNode) pools.elements.push_back(id);
        break;
      case NodeType::kText:
        pools.texts.push_back(id);
        break;
      case NodeType::kAttribute:
        pools.attributes.push_back(id);
        break;
    }
  }
  return pools;
}

bool PulGenerator::EmitRandomOp(
    Pul* pul, const Document& doc, const NodePools& pools,
    const Labeling& labeling, std::set<std::pair<NodeId, int>>* used_rep,
    int* fresh) {
  auto pick = [&](const std::vector<NodeId>& pool) -> NodeId {
    if (pool.empty()) return kInvalidNode;
    return pool[static_cast<size_t>(rng_.Below(pool.size()))];
  };
  auto frag = [&](Pul* p) {
    int n = (*fresh)++;
    auto r = p->AddFragment("<w" + std::to_string(n) + ">gen</w" +
                            std::to_string(n) + ">");
    return *r;
  };
  for (int attempt = 0; attempt < 8; ++attempt) {
    OpKind kind = static_cast<OpKind>(rng_.Below(pul::kNumOpKinds));
    switch (kind) {
      case OpKind::kInsBefore:
      case OpKind::kInsAfter: {
        NodeId target = rng_.Chance(0.8) ? pick(pools.elements)
                                         : pick(pools.texts);
        if (target == kInvalidNode) continue;
        return pul->AddTreeOp(kind, target, labeling, {frag(pul)}).ok();
      }
      case OpKind::kInsFirst:
      case OpKind::kInsLast:
      case OpKind::kInsInto: {
        NodeId target = pick(pools.elements);
        if (target == kInvalidNode) continue;
        return pul->AddTreeOp(kind, target, labeling, {frag(pul)}).ok();
      }
      case OpKind::kInsAttributes: {
        NodeId target = pick(pools.elements);
        if (target == kInvalidNode) continue;
        std::string name = "w" + std::to_string((*fresh)++);
        // The fresh counter restarts per PUL, so a previous commit (or a
        // merged-in edit) may already have put this name on the element;
        // inserting it again would make the PUL inapplicable.
        if (HasAttributeNamed(doc, target, name)) continue;
        NodeId attr = pul->NewAttributeParam(name, "v");
        return pul->AddTreeOp(kind, target, labeling, {attr}).ok();
      }
      case OpKind::kDelete: {
        NodeId target = rng_.Chance(0.6) ? pick(pools.texts)
                                         : pick(pools.attributes);
        if (target == kInvalidNode) continue;
        return pul->AddDelete(target, labeling).ok();
      }
      case OpKind::kReplaceNode: {
        NodeId target = pick(pools.texts);
        if (target == kInvalidNode) continue;
        if (!used_rep->insert({target, static_cast<int>(kind)}).second) {
          continue;
        }
        NodeId t = pul->NewTextParam("rep" + std::to_string((*fresh)++));
        return pul->AddTreeOp(kind, target, labeling, {t}).ok();
      }
      case OpKind::kReplaceValue: {
        NodeId target = rng_.Chance(0.5) ? pick(pools.texts)
                                         : pick(pools.attributes);
        if (target == kInvalidNode) continue;
        if (!used_rep->insert({target, static_cast<int>(kind)}).second) {
          continue;
        }
        return pul
            ->AddStringOp(kind, target, labeling,
                          "val" + std::to_string((*fresh)++))
            .ok();
      }
      case OpKind::kReplaceChildren: {
        NodeId target = pick(pools.elements);
        if (target == kInvalidNode) continue;
        if (!used_rep->insert({target, static_cast<int>(kind)}).second) {
          continue;
        }
        NodeId t = pul->NewTextParam("content" +
                                     std::to_string((*fresh)++));
        return pul->AddTreeOp(kind, target, labeling, {t}).ok();
      }
      case OpKind::kRename: {
        NodeId target = rng_.Chance(0.8) ? pick(pools.elements)
                                         : pick(pools.attributes);
        if (target == kInvalidNode) continue;
        if (!used_rep->insert({target, static_cast<int>(kind)}).second) {
          continue;
        }
        std::string name = "n" + std::to_string((*fresh)++);
        // Same restart hazard as kInsAttributes: a renamed attribute must
        // not take a name its owner element already carries.
        if (doc.type(target) == NodeType::kAttribute &&
            HasAttributeNamed(doc, doc.parent(target), name)) {
          continue;
        }
        return pul->AddStringOp(kind, target, labeling, name).ok();
      }
    }
  }
  return false;
}

bool PulGenerator::EmitReduciblePair(
    Pul* pul, const NodePools& pools, const Labeling& labeling,
    std::set<std::pair<NodeId, int>>* used_rep, int* fresh) {
  if (pools.elements.empty()) return false;
  NodeId target = pools.elements[static_cast<size_t>(
      rng_.Below(pools.elements.size()))];
  auto frag = [&]() {
    int n = (*fresh)++;
    auto r = pul->AddFragment("<w" + std::to_string(n) + ">gen</w" +
                              std::to_string(n) + ">");
    return *r;
  };
  switch (rng_.Below(4)) {
    case 0: {
      // I5: two same-kind insertions on the same node.
      OpKind kind = rng_.Chance(0.5) ? OpKind::kInsLast : OpKind::kInsFirst;
      return pul->AddTreeOp(kind, target, labeling, {frag()}).ok() &&
             pul->AddTreeOp(kind, target, labeling, {frag()}).ok();
    }
    case 1:
      // O1: a rename overridden by a delete of the same node.
      if (!used_rep->insert({target, static_cast<int>(OpKind::kRename)})
               .second) {
        return false;
      }
      return pul
                 ->AddStringOp(OpKind::kRename, target, labeling,
                               "o" + std::to_string((*fresh)++))
                 .ok() &&
             pul->AddDelete(target, labeling).ok();
    case 2: {
      // I6: insInto + insFirst on the same node.
      return pul->AddTreeOp(OpKind::kInsInto, target, labeling, {frag()})
                 .ok() &&
             pul->AddTreeOp(OpKind::kInsFirst, target, labeling, {frag()})
                 .ok();
    }
    default: {
      // O2: a child insertion overridden by a repC on the same node.
      if (!used_rep
               ->insert({target, static_cast<int>(OpKind::kReplaceChildren)})
               .second) {
        return false;
      }
      NodeId t = pul->NewTextParam("rc" + std::to_string((*fresh)++));
      return pul->AddTreeOp(OpKind::kInsLast, target, labeling, {frag()})
                 .ok() &&
             pul->AddTreeOp(OpKind::kReplaceChildren, target, labeling, {t})
                 .ok();
    }
  }
}

Result<Pul> PulGenerator::Generate(const PulOptions& options) {
  NodePools pools = CollectPools(doc_);
  if (pools.elements.empty()) {
    return Status::InvalidArgument("document too small for a workload");
  }
  Pul pul;
  pul.BindIdSpace(options.id_base != 0 ? options.id_base
                                       : doc_.max_assigned_id() + 1);
  std::set<std::pair<NodeId, int>> used_rep;
  int fresh = 0;
  int guard = 0;
  while (pul.size() < options.num_ops &&
         ++guard < static_cast<int>(options.num_ops) * 16 + 64) {
    if (options.reducible_fraction > 0 &&
        rng_.Chance(options.reducible_fraction / 2)) {
      // One pair counts as two operations and one rule application.
      EmitReduciblePair(&pul, pools, labeling_, &used_rep, &fresh);
    } else {
      EmitRandomOp(&pul, doc_, pools, labeling_, &used_rep, &fresh);
    }
  }
  if (pul.size() < options.num_ops) {
    return Status::Internal("could not generate the requested op count");
  }
  return pul;
}

Result<std::vector<Pul>> PulGenerator::GenerateSequence(
    const SequenceOptions& options) {
  std::vector<Pul> out;
  Document working = doc_;
  Labeling working_labeling = labeling_;
  std::vector<NodeId> new_elements;
  std::vector<NodeId> new_texts;
  NodeId base = doc_.max_assigned_id() + 1;

  for (size_t k = 0; k < options.num_puls; ++k) {
    NodePools pools = CollectPools(working);
    Pul pul;
    pul.BindIdSpace(base + k * kIdBlock);
    std::set<std::pair<NodeId, int>> used_rep;
    int fresh = 0;
    int guard = 0;
    // Prune new-node lists to nodes still present.
    auto prune = [&](std::vector<NodeId>& pool) {
      pool.erase(std::remove_if(pool.begin(), pool.end(),
                                [&](NodeId id) {
                                  return !working.Exists(id) ||
                                         working.parent(id) == kInvalidNode;
                                }),
                 pool.end());
    };
    prune(new_elements);
    prune(new_texts);
    while (pul.size() < options.ops_per_pul &&
           ++guard < static_cast<int>(options.ops_per_pul) * 16 + 64) {
      bool on_new = k > 0 && rng_.Chance(options.new_node_fraction) &&
                    !(new_elements.empty() && new_texts.empty());
      if (on_new) {
        // Insertion into / value update of a node added by an earlier
        // PUL (exercises aggregation rule D6).
        bool use_element =
            !new_elements.empty() &&
            (new_texts.empty() || rng_.Chance(0.7));
        if (use_element) {
          NodeId target = new_elements[static_cast<size_t>(
              rng_.Below(new_elements.size()))];
          int n = fresh++;
          auto f = pul.AddFragment("<nn" + std::to_string(n) + ">x</nn" +
                                   std::to_string(n) + ">");
          OpKind kind =
              rng_.Chance(0.5) ? OpKind::kInsLast : OpKind::kInsFirst;
          if (!pul.AddTreeOp(kind, target, working_labeling, {*f}).ok()) {
            continue;
          }
        } else {
          NodeId target = new_texts[static_cast<size_t>(
              rng_.Below(new_texts.size()))];
          if (!used_rep
                   .insert({target,
                            static_cast<int>(OpKind::kReplaceValue)})
                   .second) {
            continue;
          }
          if (!pul.AddStringOp(OpKind::kReplaceValue, target,
                               working_labeling,
                               "seq" + std::to_string(fresh++))
                   .ok()) {
            continue;
          }
        }
      } else {
        EmitRandomOp(&pul, working, pools, working_labeling, &used_rep,
                     &fresh);
      }
    }
    if (pul.size() < options.ops_per_pul) {
      return Status::Internal("could not generate the requested op count");
    }
    // Record the nodes this PUL inserts, then apply it so the next PUL
    // sees the updated document.
    for (const UpdateOp& op : pul.ops()) {
      for (NodeId root : op.param_trees) {
        pul.forest().Visit(root, [&](NodeId v) {
          switch (pul.forest().type(v)) {
            case NodeType::kElement:
              new_elements.push_back(v);
              break;
            case NodeType::kText:
              new_texts.push_back(v);
              break;
            default:
              break;
          }
          return true;
        });
      }
    }
    pul::ApplyOptions apply_options;
    apply_options.labeling = &working_labeling;
    XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&working, pul, apply_options));
    out.push_back(std::move(pul));
  }
  return out;
}

Result<std::vector<Pul>> PulGenerator::GenerateConflicting(
    const ConflictOptions& options) {
  if (options.num_puls < 2) {
    return Status::InvalidArgument("conflicts need at least two PULs");
  }
  NodePools pools = CollectPools(doc_);
  NodeId base = doc_.max_assigned_id() + 1;
  std::vector<Pul> puls(options.num_puls);
  std::vector<int> fresh(options.num_puls, 0);
  for (size_t i = 0; i < puls.size(); ++i) {
    puls[i].BindIdSpace(base + i * kIdBlock);
  }

  // Targets drawn without replacement keep the injected conflict counts
  // exact: operations on distinct nodes never conflict unless related by
  // ancestry, and the conflict-free fillers avoid del/repN/repC. The
  // used-set also covers nodes a recipe touches *besides* its drawn
  // target (a type-5 child, a chained parent) so no node ever receives
  // two same-kind modifications from one PUL.
  std::vector<NodeId> element_pool = pools.elements;
  rng_.Shuffle(element_pool);
  std::set<NodeId> used;
  size_t next_target = 0;
  auto take_target = [&]() -> NodeId {
    while (next_target < element_pool.size()) {
      NodeId candidate = element_pool[next_target++];
      if (used.insert(candidate).second) return candidate;
    }
    return kInvalidNode;
  };

  size_t total_ops = options.num_puls * options.ops_per_pul;
  size_t conflict_ops =
      static_cast<size_t>(static_cast<double>(total_ops) *
                          options.conflicting_fraction);
  size_t group = std::max<size_t>(2, options.ops_per_conflict);
  size_t num_conflicts = conflict_ops / group;
  size_t chained = static_cast<size_t>(static_cast<double>(num_conflicts) *
                                       options.chained_fraction);

  // Round-robin the participating PULs.
  size_t rotor = 0;
  auto pul_at = [&](size_t offset) -> size_t {
    return (rotor + offset) % options.num_puls;
  };
  static constexpr OpKind kOverridden[] = {
      OpKind::kRename, OpKind::kInsFirst, OpKind::kInsLast,
      OpKind::kInsInto, OpKind::kInsAttributes};

  auto add_overridden = [&](Pul* pul, NodeId target, size_t slot,
                            int* fresh_ctr) -> Status {
    OpKind kind = kOverridden[slot % 5];
    switch (kind) {
      case OpKind::kRename:
        return pul->AddStringOp(kind, target, labeling_,
                                "cf" + std::to_string((*fresh_ctr)++));
      case OpKind::kInsAttributes: {
        NodeId attr = pul->NewAttributeParam(
            "cfa" + std::to_string((*fresh_ctr)++), "v");
        return pul->AddTreeOp(kind, target, labeling_, {attr});
      }
      default: {
        auto f = pul->AddFragment("<cf" + std::to_string((*fresh_ctr)++) +
                                  "/>");
        return pul->AddTreeOp(kind, target, labeling_, {*f});
      }
    }
  };

  for (size_t c = 0; c < num_conflicts; ++c, ++rotor) {
    NodeId target = take_target();
    if (target == kInvalidNode) {
      return Status::InvalidArgument(
          "document too small for the requested conflict count");
    }
    size_t members = std::min(group, puls.size());
    int type = static_cast<int>(c % 5) + 1;
    switch (type) {
      case 1:  // repeated modification: same-kind renames
        for (size_t m = 0; m < members; ++m) {
          size_t p = pul_at(m);
          XUPDATE_RETURN_IF_ERROR(puls[p].AddStringOp(
              OpKind::kRename, target, labeling_,
              "t1v" + std::to_string(fresh[p]++)));
        }
        break;
      case 2:  // repeated attribute insertion: shared attribute name
        for (size_t m = 0; m < members; ++m) {
          size_t p = pul_at(m);
          NodeId attr = puls[p].NewAttributeParam(
              "shared" + std::to_string(c), "v" + std::to_string(m));
          XUPDATE_RETURN_IF_ERROR(puls[p].AddTreeOp(
              OpKind::kInsAttributes, target, labeling_, {attr}));
        }
        break;
      case 3:  // insertion order: same-kind sibling insertions
        for (size_t m = 0; m < members; ++m) {
          size_t p = pul_at(m);
          auto f = puls[p].AddFragment(
              "<t3n" + std::to_string(fresh[p]++) + "/>");
          XUPDATE_RETURN_IF_ERROR(puls[p].AddTreeOp(
              OpKind::kInsBefore, target, labeling_, {*f}));
        }
        break;
      case 4:  // local override: one delete vs. overridable ops
        XUPDATE_RETURN_IF_ERROR(
            puls[pul_at(0)].AddDelete(target, labeling_));
        for (size_t m = 1; m < members; ++m) {
          size_t p = pul_at(m);
          XUPDATE_RETURN_IF_ERROR(
              add_overridden(&puls[p], target, m - 1, &fresh[p]));
        }
        break;
      case 5: {  // non-local override: delete an ancestor
        NodeId child = kInvalidNode;
        for (NodeId cand : doc_.children(target)) {
          if (doc_.type(cand) == NodeType::kElement &&
              used.insert(cand).second) {
            child = cand;
            break;
          }
        }
        if (child == kInvalidNode) {
          // No element child: degrade to a local override.
          XUPDATE_RETURN_IF_ERROR(
              puls[pul_at(0)].AddDelete(target, labeling_));
          for (size_t m = 1; m < members; ++m) {
            size_t p = pul_at(m);
            XUPDATE_RETURN_IF_ERROR(
                add_overridden(&puls[p], target, m - 1, &fresh[p]));
          }
          break;
        }
        XUPDATE_RETURN_IF_ERROR(
            puls[pul_at(0)].AddDelete(target, labeling_));
        for (size_t m = 1; m < members; ++m) {
          size_t p = pul_at(m);
          XUPDATE_RETURN_IF_ERROR(
              add_overridden(&puls[p], child, m - 1, &fresh[p]));
        }
        break;
      }
    }
    if (type == 1 && chained > 0) {
      // Chain: a delete of the target's parent dissolves this conflict
      // once the non-local override is solved first. Skip huge
      // containers — deleting one would (realistically but unhelpfully)
      // override a large share of the whole workload and distort the
      // controlled conflict mix.
      NodeId parent = doc_.parent(target);
      if (parent != kInvalidNode && doc_.parent(parent) != kInvalidNode &&
          doc_.children(parent).size() <= 32 &&
          used.insert(parent).second) {
        size_t p = pul_at(members);
        XUPDATE_RETURN_IF_ERROR(puls[p].AddDelete(parent, labeling_));
        --chained;
      }
    }
  }

  // Conflict-free fillers. Targets are sampled (with replacement) from
  // the part of the pool no conflict consumed; only insInto (exempt from
  // order conflicts) and uniquely-named insA are used, so fillers never
  // conflict with each other even on shared targets.
  if (next_target >= element_pool.size()) {
    return Status::InvalidArgument(
        "document too small for the requested conflict count");
  }
  std::span<const NodeId> filler_pool(element_pool.data() + next_target,
                                      element_pool.size() - next_target);
  for (size_t p = 0; p < puls.size(); ++p) {
    while (puls[p].size() < options.ops_per_pul) {
      NodeId target =
          filler_pool[static_cast<size_t>(rng_.Below(filler_pool.size()))];
      if (rng_.Chance(0.25)) {
        NodeId attr = puls[p].NewAttributeParam(
            "fa" + std::to_string(p) + "_" + std::to_string(fresh[p]++),
            "v");
        XUPDATE_RETURN_IF_ERROR(puls[p].AddTreeOp(
            OpKind::kInsAttributes, target, labeling_, {attr}));
      } else {
        auto f = puls[p].AddFragment("<fl" + std::to_string(fresh[p]++) +
                                     "/>");
        XUPDATE_RETURN_IF_ERROR(puls[p].AddTreeOp(OpKind::kInsInto, target,
                                                  labeling_, {*f}));
      }
    }
  }
  return puls;
}

}  // namespace xupdate::workload
