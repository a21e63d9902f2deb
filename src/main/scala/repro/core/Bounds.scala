package repro.core

import repro.graph.CsrGraph

/** Sample-size bounds of Theorems 4.1–4.5 for an (ε,δ)-approximation,
  * computed from exact graph statistics (Tables 18–22 use ε = δ = 0.1).
  *
  * Theorems 4.1–4.2 are closed forms in |E| and F. Theorems 4.3–4.5 are
  * whole-graph sums or maxima over d(u) and T(u), each taken in one
  * O(|V|+|E|) pass over the CSR graph on the driver. nV = |V| and nE = |E|
  * are the graph's; f = F is the exact target count for labels (t1, t2).
  */
object Bounds {

  final case class SampleBounds(nsHH: Double, nsHT: Double, neHH: Double,
                                neHT: Double, neRW: Double)

  /** Theorem 4.1 — NeighborSample-HH:
    * k ≥ (Σ_{X∈E} |E|·I(X) − F²) / (ε²F²δ) = (|E|F − F²)/(ε²F²δ).
    */
  def nsHansenHurwitz(nE: Long, f: Long, eps: Double, delta: Double): Double =
    (nE.toDouble * f - f.toDouble * f) / (eps * eps * f.toDouble * f * delta)

  /** Theorem 4.2 — NeighborSample-HT:
    * k ≥ max_e log((I(e)²+B)/B) / log(1/A), A = 1−1/|E|, B = δε²F²/|E|.
    * The max is attained at any target edge (I=1).
    */
  def nsHorvitzThompson(nE: Long, f: Long, eps: Double, delta: Double): Double = {
    val a = 1.0 - 1.0 / nE
    val b = delta * eps * eps * f.toDouble * f / nE
    math.log((1.0 + b) / b) / math.log(1.0 / a)
  }

  /** Calls `f(d(u), T(u))` for every node u of degree ≥ 1. An isolated node
    * has π = 0: no walk reaches it, so it carries no term.
    */
  private def foreachNode(g: CsrGraph, t1: Int, t2: Int)(f: (Double, Double) => Unit): Unit = {
    var u = 0
    while (u < g.numNodes) {
      val d = g.degree(u)
      if (d > 0) f(d, g.targetEdgesAt(u, t1, t2))
      u += 1
    }
  }

  /** Theorem 4.3 — NeighborExploration-HH:
    * k ≥ (Σ_u 2|E|T(u)²/d(u) − 4F²) / (4ε²F²δ).
    */
  def neHansenHurwitz(g: CsrGraph, t1: Int, t2: Int, f: Long,
                      eps: Double, delta: Double): Double = {
    val nE = g.numEdges
    var s = 0.0
    foreachNode(g, t1, t2)((d, t) => s += 2.0 * nE * t * t / d)
    (s - 4.0 * f * f) / (4.0 * eps * eps * f.toDouble * f * delta)
  }

  /** Theorem 4.4 — NeighborExploration-HT:
    * k ≥ max_y log((T(y)²+B)/B) / log(1/A(y)),
    * A(y) = 1 − d(y)/2|E|, B = 4δε²F²/|V|.
    */
  def neHorvitzThompson(g: CsrGraph, t1: Int, t2: Int, f: Long,
                        eps: Double, delta: Double): Double = {
    val nE = g.numEdges
    val b = 4.0 * delta * eps * eps * f.toDouble * f / g.numNodes
    var k = Double.NegativeInfinity
    foreachNode(g, t1, t2) { (d, t) =>
      k = math.max(k, math.log((t * t + b) / b) / -math.log(1.0 - d / (2.0 * nE)))
    }
    k
  }

  /** Theorem 4.5 — NeighborExploration-RW:
    * k ≥ max{ 18(Σ_y T(y)²/π_y − 4F²)/(4ε²F²δ),
    *          18(Σ_y 1/π_y − |V|²)/(ε²|V|²δ) },  π_y = d(y)/2|E|.
    */
  def neReweighted(g: CsrGraph, t1: Int, t2: Int, f: Long,
                   eps: Double, delta: Double): Double = {
    val nV = g.numNodes.toLong
    val nE = g.numEdges
    var sT = 0.0
    var sInv = 0.0
    foreachNode(g, t1, t2) { (d, t) =>
      sT += 2.0 * nE * t * t / d
      sInv += 2.0 * nE / d
    }
    val kT = 18.0 * (sT - 4.0 * f * f) / (4.0 * eps * eps * f.toDouble * f * delta)
    val kZ = 18.0 * (sInv - nV.toDouble * nV) / (eps * eps * nV.toDouble * nV * delta)
    math.max(kT, kZ)
  }

  /** All five bounds for labels (t1, t2) with F = `f` — one row of
    * Tables 18–22.
    */
  def all(g: CsrGraph, t1: Int, t2: Int, f: Long,
          eps: Double = 0.1, delta: Double = 0.1): SampleBounds =
    SampleBounds(
      nsHH = nsHansenHurwitz(g.numEdges, f, eps, delta),
      nsHT = nsHorvitzThompson(g.numEdges, f, eps, delta),
      neHH = neHansenHurwitz(g, t1, t2, f, eps, delta),
      neHT = neHorvitzThompson(g, t1, t2, f, eps, delta),
      neRW = neReweighted(g, t1, t2, f, eps, delta),
    )
}
