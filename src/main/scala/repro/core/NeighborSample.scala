package repro.core

import java.util.SplittableRandom

import scala.collection.mutable

import repro.graph.CsrGraph

/** NeighborSample (paper Algorithm 1 + §4.1) — edge sampling via one walk.
  *
  * Per the paper's single-walk implementation: burn in past the mixing time,
  * then take k further steps and treat each traversed edge as one sample
  * (each sampled edge is uniform over E under the stationary distribution).
  * Both estimators are evaluated at every checkpoint budget from one pass:
  *
  *  - Hansen-Hurwitz (Eq. 2) needs only the running count of target hits.
  *  - Horvitz-Thompson (Eq. 3) needs the count of *distinct* target edges
  *    seen so far (DESIGN.md §3 records why no r=2.5%k thinning is applied).
  */
object NeighborSample {

  val HH = "NeighborSample-HH"
  val HT = "NeighborSample-HT"

  /** Estimator names, in the row order of [[run]]'s result. */
  val Names: Seq[String] = Seq(HH, HT)

  /** Run one simulation; returns the estimates indexed [estimator][checkpoint]:
    * estimator `e` of [[Names]] at checkpoint `c` is at `e * checkpoints.size + c`.
    */
  def run(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int], burnInSteps: Int,
          rng: SplittableRandom): Array[Double] = {
    val cps = Walks.checkpointArray(checkpoints)
    val nC = cps.length
    val nE = g.numEdges
    val out = new Array[Double](Names.size * nC)

    var u = Walks.burnIn(g, Walks.uniformStart(g, rng), burnInSteps, rng)
    var targetHits = 0L
    val distinctTargets = mutable.HashSet.empty[Long]
    var next = 0 // index of next checkpoint to emit
    var i = 1
    while (next < nC) {
      val v = Walks.step(g, u, rng)
      if (g.isTargetEdge(u, v, t1, t2)) {
        targetHits += 1
        distinctTargets += CsrGraph.edgeKey(u, v)
      }
      u = v
      while (next < nC && cps(next) <= i) {
        val k = cps(next)
        out(next) = Estimators.nsHansenHurwitz(nE, targetHits, k)
        out(nC + next) = Estimators.nsHorvitzThompson(nE, distinctTargets.size, k)
        next += 1
      }
      i += 1
    }
    out
  }
}
