package repro.baselines

import java.util.SplittableRandom

import repro.core.{Estimators, Walks}
import repro.graph.{CsrGraph, LineGraph}

/** Baselines adapted from Li et al. (ICDE'15) per the paper's §5.1: random
  * walks on the line graph G' of G, estimating the count of target *nodes*
  * of G' (= target edges of G).
  *
  * G' is simulated directly on G ([[LineGraph]]); a walk state is a G-edge
  * (u, v). Five chains/estimators:
  *
  *  - EX-RW    simple walk on G'; re-weighted by 1/d'(e).
  *  - EX-MHRW  Metropolis-Hastings to a uniform stationary: EX-RCMH with
  *             α = 1; plain average (every weight is 1).
  *  - EX-MDRW  maximum-degree chain (self-loops up to D' = max d');
  *             uniform stationary; plain average over all steps.
  *  - EX-RCMH  rejection-controlled MH with exponent α ∈ [0, 0.3]:
  *             accept min(1, (d'(e)/d'(f))^α); stationary ∝ d'(e)^(1-α);
  *             re-weighted by d'(e)^(α-1). α = 0 degenerates to EX-RW.
  *  - EX-GMD   generalized maximum degree with C = δ·D', δ ∈ [0.3, 0.7]:
  *             move w.p. d'(e)/m(e), m(e) = max(d'(e), C); stationary
  *             ∝ m(e); re-weighted by 1/m(e). δ ≥ 1 degenerates to the
  *             MD chain with cap C.
  *
  * Every chain step — including MH rejections and MD self-loops — consumes
  * one unit of the sample budget, matching the paper's accounting.
  */
object LineGraphWalks {

  val RW   = "EX-RW"
  val MHRW = "EX-MHRW"
  val MDRW = "EX-MDRW"
  val RCMH = "EX-RCMH"
  val GMD  = "EX-GMD"

  sealed trait Variant { def name: String }
  case object ExRw extends Variant { val name = RW }
  case object ExMhrw extends Variant { val name = MHRW }
  case object ExMdrw extends Variant { val name = MDRW }
  final case class ExRcmh(alpha: Double) extends Variant { val name = RCMH }
  final case class ExGmd(delta: Double) extends Variant { val name = GMD }

  /** All five variants with the experiment parameter choices (DESIGN.md §3). */
  def defaultVariants: Seq[Variant] =
    Seq(ExRw, ExMhrw, ExMdrw, ExRcmh(0.3), ExGmd(0.5))

  /** A start G-edge drawn by one SRW node draw plus a uniform incident edge
    * (any start works — the chain burn-in dominates).
    */
  private def startEdge(g: CsrGraph, rng: SplittableRandom): Long = {
    val u = Walks.uniformStart(g, rng)
    LineGraph.edge(u, g.neighbor(u, rng.nextInt(g.degree(u))))
  }

  /** Run one simulation of `variant`; returns its estimate at each
    * checkpoint (a one-row [estimator][checkpoint] array).
    */
  def run(g: CsrGraph, variant: Variant, t1: Int, t2: Int, checkpoints: Seq[Int],
          burnInSteps: Int, rng: SplittableRandom): Array[Double] = {
    val cps = Walks.checkpointArray(checkpoints)
    val nC = cps.length
    val nE = g.numEdges
    val dMax = g.maxLineDegree.toDouble

    // Move rules from a state e of G'-degree d > 0. MH proposes a uniform
    // G'-neighbor f and accepts it w.p. min(1, (d/d'(f))^alpha); MD moves
    // w.p. d/max(d, cap) and self-loops otherwise.
    def mh(alpha: Double): (Long, Int) => Long = (e, d) => {
      val f = LineGraph.uniformLineNeighbor(g, e, rng)
      if (rng.nextDouble() < math.pow(d.toDouble / LineGraph.lineDegree(g, f), alpha)) f else e
    }
    def md(cap: Double): (Long, Int) => Long = (e, d) =>
      if (rng.nextDouble() < d / math.max(d.toDouble, cap)) LineGraph.uniformLineNeighbor(g, e, rng)
      else e
    // The variant's move rule and the weight wᵢ of a visited state of
    // G'-degree d, chosen once per run.
    val (move, weight): ((Long, Int) => Long, Int => Double) = variant match {
      case ExRw          => ((e, _) => LineGraph.uniformLineNeighbor(g, e, rng), d => 1.0 / d)
      case ExMhrw        => (mh(1.0), _ => 1.0)
      case ExMdrw        => (md(dMax), _ => 1.0)
      case ExRcmh(alpha) => (mh(alpha), d => math.pow(d.toDouble, alpha - 1.0))
      case ExGmd(delta)  =>
        val cap = math.max(1.0, delta * dMax)
        (md(cap), d => 1.0 / math.max(d.toDouble, cap))
    }

    // One chain transition; an isolated G'-node can only self-loop.
    def transition(e: Long): Long = {
      val d = LineGraph.lineDegree(g, e)
      if (d > 0) move(e, d) else e
    }

    var e = startEdge(g, rng)
    var i = 0
    while (i < burnInSteps) { e = transition(e); i += 1 }

    val out = new Array[Double](nC)
    var weightSum = 0.0    // Σ wᵢ
    var weightedHits = 0.0 // Σ I(eᵢ)·wᵢ
    var next = 0
    var step = 1
    while (next < nC) {
      e = transition(e)
      val w = weight(LineGraph.lineDegree(g, e))
      weightSum += w
      if (g.isTargetEdge(LineGraph.src(e), LineGraph.dst(e), t1, t2)) weightedHits += w
      while (next < nC && cps(next) <= step) {
        out(next) = Estimators.reweightedCount(nE, weightedHits, weightSum)
        next += 1
      }
      step += 1
    }
    out
  }
}
