#ifndef OD_OPTIMIZER_ORDER_PROPERTY_H_
#define OD_OPTIMIZER_ORDER_PROPERTY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "engine/ops.h"
#include "prover/prover.h"
#include "theory/theory.h"

namespace od {
namespace opt {

/// Bridges engine sort specifications and theory attribute lists: a table's
/// ColumnIds are used directly as theory AttributeIds, so a SortSpec *is*
/// an AttributeList.
AttributeList ToList(const engine::SortSpec& spec);
engine::SortSpec ToSpec(const AttributeList& list);

/// Order-property reasoning over a set of prescribed ODs — the
/// "interesting orders" machinery of [17] upgraded with OD inference.
///
/// The key asymmetry (Section 2.2): a stream ordered by P may serve a
/// required order R whenever ℳ ⊨ P ↦ R — strengthening is allowed,
/// weakening is not. Equivalence is only needed when *rewriting the query's
/// own ORDER BY text*, which must preserve semantics exactly.
class OrderReasoner {
 public:
  /// Reasons over a shared, *mutable* constraint catalog: declare or drop
  /// ODs on the theory mid-flight and the reasoner's answers track the new
  /// catalog (the prover's memo is kept consistent incrementally).
  explicit OrderReasoner(std::shared_ptr<theory::Theory> theory)
      : theory_(std::move(theory)),
        prover_(std::make_shared<prover::Prover>(theory_)) {}
  /// Convenience for a frozen catalog.
  explicit OrderReasoner(DependencySet constraints)
      : OrderReasoner(
            std::make_shared<theory::Theory>(std::move(constraints))) {}
  /// Shares an existing prover — and therefore its memo — instead of
  /// constructing a private one. This is how planning against a pinned
  /// snapshot stays warm: every service session planning at one (tenant,
  /// epoch) routes its order-property questions through that epoch's
  /// shared prover, so a proof obtained once serves them all.
  explicit OrderReasoner(std::shared_ptr<prover::Prover> prover)
      : theory_(prover->shared_theory()), prover_(std::move(prover)) {}

  const prover::Prover& prover() const { return *prover_; }
  theory::Theory& theory() { return *theory_; }
  const theory::Theory& theory() const { return *theory_; }

  /// A stream sorted by `provided` also satisfies ORDER BY `required`.
  bool Provides(const engine::SortSpec& provided,
                const engine::SortSpec& required) const;

  /// The two specifications order every instance identically (X ↔ Y).
  bool Equivalent(const engine::SortSpec& a, const engine::SortSpec& b) const;

  /// Equal-key groups of `group_cols` are contiguous in a stream sorted by
  /// `provided` — the requirement for stream aggregation. This holds whenever
  /// provided ↦ G for some (equivalently, any) ordering G of the group
  /// columns *whose attributes are covered by the provided prefix
  /// functionally*… more simply: sorting by `provided` makes groups
  /// contiguous iff ℳ ⊨ P ↦ P∘G′ for G′ listing the group columns (the
  /// FD-shaped consequence: within equal P, group columns are constant)
  /// or the group columns are a prefix-permutation of P. We check the
  /// general sufficient condition: set(provided) → set(group) under ℳ's FD
  /// projection, or P ↦ G′ as an OD.
  bool GroupsContiguousUnder(const engine::SortSpec& provided,
                             const std::vector<engine::ColumnId>& group_cols)
      const;

 private:
  std::shared_ptr<theory::Theory> theory_;
  std::shared_ptr<prover::Prover> prover_;
};

}  // namespace opt
}  // namespace od

#endif  // OD_OPTIMIZER_ORDER_PROPERTY_H_
