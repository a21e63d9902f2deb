package repro.core

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}

class NeighborSampleSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(30, 60, seed = 71, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2).toDouble

  /** Estimate of `alg` at checkpoint index `c` of a run over `nC` checkpoints. */
  private def at(out: Array[Double], alg: String, c: Int = 0, nC: Int = 1): Double =
    out(NeighborSample.Names.indexOf(alg) * nC + c)

  test("emits one row per estimator per checkpoint") {
    val out = NeighborSample.run(g, 1, 2, Seq(5, 10, 20), 100, new SplittableRandom(1))
    assert(out.length == 6)
    assert(NeighborSample.Names == Seq(NeighborSample.HH, NeighborSample.HT))
    // HH at budget k is a multiple of |E|/k
    for ((k, c) <- Seq(5, 10, 20).zipWithIndex) {
      val units = at(out, NeighborSample.HH, c, 3) * k / g.numEdges
      assert(math.abs(units - math.round(units)) < 1e-9, s"k=$k")
    }
  }

  test("checkpoints must be ascending") {
    for (cps <- Seq(Seq(10, 5), Seq(0, 5), Seq(-3, 5), Seq.empty[Int]))
      intercept[IllegalArgumentException](
        NeighborSample.run(g, 1, 2, cps, 10, new SplittableRandom(1)))
  }

  test("deterministic in the seed") {
    val a = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    val b = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(3))
    val c = NeighborSample.run(g, 1, 2, Seq(10, 30), 50, new SplittableRandom(4))
    assert(a sameElements b)
    assert(!(a sameElements c))
  }

  test("prefix consistency: estimate at k is independent of later checkpoints") {
    val full = NeighborSample.run(g, 1, 2, Seq(10, 40), 50, new SplittableRandom(5))
    val short = NeighborSample.run(g, 1, 2, Seq(10), 50, new SplittableRandom(5))
    assert(NeighborSample.Names.forall(alg => at(full, alg, 0, 2) == at(short, alg)))
  }

  test("HH estimates are multiples of |E|/k") {
    val out = NeighborSample.run(g, 1, 2, Seq(20), 50, new SplittableRandom(6))
    val hh = at(out, NeighborSample.HH)
    val unit = g.numEdges.toDouble / 20
    assert(math.abs(hh / unit - math.round(hh / unit)) < 1e-9)
  }

  test("estimates are zero when the target labels are absent") {
    val out = NeighborSample.run(g, 8, 9, Seq(10, 20), 50, new SplittableRandom(7))
    assert(out.forall(_ == 0.0))
  }

  test("HH is empirically unbiased: mean over sims close to F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      val out = NeighborSample.run(g, 1, 2, Seq(40), 150, new SplittableRandom(1000 + s))
      at(out, NeighborSample.HH)
    }.sum / sims
    assert(math.abs(mean - f) < 0.10 * f, s"mean=$mean F=$f")
  }

  test("HT is close to unbiased: mean over sims within 15% of F") {
    val sims = 600
    val mean = (1 to sims).map { s =>
      val out = NeighborSample.run(g, 1, 2, Seq(40), 150, new SplittableRandom(5000 + s))
      at(out, NeighborSample.HT)
    }.sum / sims
    assert(math.abs(mean - f) < 0.15 * f, s"mean=$mean F=$f")
  }

  test("HH error shrinks with the budget (variance sanity)") {
    def rmse(k: Int, seedBase: Int): Double = {
      val sims = 300
      math.sqrt((1 to sims).map { s =>
        val out = NeighborSample.run(g, 1, 2, Seq(k), 150, new SplittableRandom(seedBase + s))
        val est = at(out, NeighborSample.HH)
        (est - f) * (est - f)
      }.sum / sims)
    }
    assert(rmse(200, 90000) < rmse(8, 80000), "k=200 must beat k=8")
  }

  test("on an all-target graph every sample hits: F̂ = |E| exactly") {
    // complete graph labels cycle 1,2,3 — use (1,2)? Not all edges target.
    // Use a 2-node-label graph where every edge is a target instead.
    val star = TestGraphs.star(12) // center 1, leaves 2: every edge is (1,2)
    val out = NeighborSample.run(star, 1, 2, Seq(25), 50, new SplittableRandom(9))
    val hh = at(out, NeighborSample.HH)
    assert(hh == star.numEdges.toDouble)
  }
}
