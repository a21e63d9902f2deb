package repro.core

import java.util.SplittableRandom

import repro.graph.CsrGraph

/** Simple-random-walk primitives over the restricted-API graph.
  *
  * A walk only touches the [[CsrGraph]] API surface (degree / neighbor),
  * mirroring the paper's access model. All randomness flows through a
  * caller-supplied [[SplittableRandom]] so simulations are reproducible and
  * independently seedable per (experiment, algorithm, simulation).
  */
object Walks {

  /** One simple-random-walk step from u: a uniform neighbor of u. */
  def step(g: CsrGraph, u: Int, rng: SplittableRandom): Int =
    g.neighbor(u, rng.nextInt(g.degree(u)))

  /** `checkpoints` as an array, checked to be non-empty, ascending and ≥ 1:
    * a sampler emits at each checkpoint once its budget reaches it.
    */
  def checkpointArray(checkpoints: Seq[Int]): Array[Int] = {
    require(checkpoints.nonEmpty && checkpoints.head >= 1 && checkpoints == checkpoints.sorted,
      s"checkpoints must be non-empty, ascending and >= 1: $checkpoints")
    checkpoints.toArray
  }

  /** A uniform random start node. */
  def uniformStart(g: CsrGraph, rng: SplittableRandom): Int =
    rng.nextInt(g.numNodes)

  /** Walk `burnIn` steps from `start` and return the end node — the paper's
    * "walk until the mixing time is achieved" prefix, excluded from samples.
    */
  def burnIn(g: CsrGraph, start: Int, steps: Int, rng: SplittableRandom): Int = {
    var u = start
    var i = 0
    while (i < steps) { u = step(g, u, rng); i += 1 }
    u
  }

  /** The post-burn-in node trace u_0 .. u_k (u_0 is the burned-in start;
    * the k sampled positions are u_1..u_k). Mostly for tests — the
    * estimators stream over steps without materializing traces.
    */
  def trace(g: CsrGraph, start: Int, burnInSteps: Int, k: Int,
            rng: SplittableRandom): Array[Int] = {
    val out = new Array[Int](k + 1)
    out(0) = burnIn(g, start, burnInSteps, rng)
    var i = 1
    while (i <= k) { out(i) = step(g, out(i - 1), rng); i += 1 }
    out
  }
}
