package repro.core

/** Pure estimator algebra shared by the sampling processes.
  *
  * Keeping the formulas here (free of walk state) lets tests check each one
  * against hand-computed values and lets the walkers stay streaming: each
  * sampler maintains a handful of running sums and evaluates these closed
  * forms at every checkpoint budget.
  */
object Estimators {

  /** P(item sampled at least once in k iid draws) for per-draw probability
    * `pi` — the Horvitz-Thompson inclusion probability 1-(1-pi)^k.
    */
  def htInclusionProb(pi: Double, k: Int): Double =
    1.0 - math.pow(1.0 - pi, k.toDouble)

  /** NeighborSample Hansen-Hurwitz (paper Eq. 2): F̂ = (|E|/k) Σ I(eᵢ). */
  def nsHansenHurwitz(nE: Long, targetHits: Long, k: Int): Double =
    nE.toDouble * targetHits / k

  /** NeighborSample Horvitz-Thompson (paper Eq. 3):
    * F̂ = (#distinct target edges in S) / (1-(1-1/|E|)^k).
    */
  def nsHorvitzThompson(nE: Long, distinctTargetEdges: Int, k: Int): Double =
    distinctTargetEdges / htInclusionProb(1.0 / nE, k)

  /** NeighborExploration Hansen-Hurwitz (paper Eq. 11):
    * F̂ = (|E|/k) Σ T(uᵢ)/d(uᵢ)  — equals (1/k) Σ T(uᵢ)/(2π(uᵢ)).
    */
  def neHansenHurwitz(nE: Long, sumTOverD: Double, k: Int): Double =
    nE.toDouble * sumTOverD / k

  /** NeighborExploration Horvitz-Thompson (paper Eq. 13):
    * F̂ = ½ Σ_{distinct u∈S} T(u) / (1-(1-d(u)/2|E|)^k).
    * `sampled` holds (T(u), d(u)) for each distinct sampled node with T>0.
    */
  def neHorvitzThompson(nE: Long, sampled: Iterable[(Int, Int)], k: Int): Double = {
    var s = 0.0
    sampled.foreach { case (t, d) =>
      s += t / htInclusionProb(d / (2.0 * nE), k)
    }
    s / 2.0
  }

  /** NeighborExploration Re-weighted (paper Eq. 19):
    * F̂ = |V| · (Σ T(uᵢ)/d(uᵢ)) / (2 Σ 1/d(uᵢ)).
    */
  def neReweighted(nV: Long, sumTOverD: Double, sumInvD: Double): Double =
    nV * sumTOverD / (2.0 * sumInvD)

  /** Generic re-weighted count estimator for the EX-* baselines on the line
    * graph: F̂ = |H| · (Σ I(eᵢ)·wᵢ) / (Σ wᵢ) with |H| = |E(G)| and wᵢ the
    * inverse stationary weight of the i-th visited G'-node. With every
    * wᵢ = 1 (EX-MHRW, EX-MDRW) it is the plain average |H| · (Σ I(eᵢ)) / k.
    */
  def reweightedCount(population: Long, weightedHits: Double, weightSum: Double): Double =
    if (weightSum == 0.0) 0.0 else population * weightedHits / weightSum
}
