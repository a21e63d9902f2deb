package repro.core

import repro.{SparkSpec, TestGraphs}

class NrmseSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(40, 80, seed = 95, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2)

  test("AllAlgorithms lists the ten algorithms of paper Table 2") {
    assert(Nrmse.AllAlgorithms.size == 10)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("NeighborSample")) == 2)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("NeighborExploration")) == 3)
    assert(Nrmse.AllAlgorithms.count(_.startsWith("EX-")) == 5)
  }

  test("simulate emits every algorithm at every checkpoint") {
    val rows = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 1)
    assert(rows.size == 10 * 2)
    assert(rows.map(_._1).toSet == Nrmse.AllAlgorithms.toSet)
  }

  test("simulate is deterministic in the seed") {
    val a = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    val b = Nrmse.simulate(g, 1, 2, Seq(10, 20), 50, seed = 7)
    assert(a == b)
  }

  test("nrmse matches the hand formula sqrt(E[(F̂-F)²])/F") {
    // Eq. 24 from sequential simulate calls at run's seeds seedBase + sim
    val (cps, sims, seedBase) = (Seq(10, 30), 5, 17L)
    val rows = (0 until sims).flatMap(s => Nrmse.simulate(g, 1, 2, cps, 50, seedBase + s))
    val got = Nrmse.run(spark, g, 1, 2, cps, 50, sims, f, seedBase)
    assert(got.keySet == Nrmse.AllAlgorithms.toSet)
    for (alg <- Nrmse.AllAlgorithms; k <- cps) {
      val ests = rows.collect { case (`alg`, `k`, e) => e }
      assert(ests.size == sims)
      val expected = math.sqrt(ests.map(e => (e - f) * (e - f)).sum / sims) / f
      assert(math.abs(got(alg)(k) - expected) <= 1e-12 * expected, s"$alg@$k")
    }
  }

  test("run returns finite non-negative NRMSE for every algorithm and budget") {
    val out = Nrmse.run(spark, g, 1, 2, Seq(10, 30), 50, sims = 30, f = f, seedBase = 11)
    assert(out.keySet == Nrmse.AllAlgorithms.toSet)
    out.foreach { case (alg, m) =>
      assert(m.keySet == Set(10, 30), alg)
      m.values.foreach(v => assert(v >= 0 && java.lang.Double.isFinite(v), s"$alg $m"))
    }
  }

  test("run is reproducible for a fixed seedBase") {
    val a = Nrmse.run(spark, g, 1, 2, Seq(15), 50, sims = 12, f = f, seedBase = 21)
    val b = Nrmse.run(spark, g, 1, 2, Seq(15), 50, sims = 12, f = f, seedBase = 21)
    assert(a == b)
  }

  test("NS-HH NRMSE decreases substantially from tiny to large budgets") {
    val out = Nrmse.run(spark, g, 1, 2, Seq(5, 400), 100, sims = 60, f = f, seedBase = 31)
    val m = out(NeighborSample.HH)
    assert(m(400) < m(5), s"expected improvement with budget: $m")
  }

  test("paperCheckpoints spans 0.5% to 5% of |V| in ten steps") {
    assert(Nrmse.paperCheckpoints(4000) == Seq(20, 40, 60, 80, 100, 120, 140, 160, 180, 200))
    assert(Nrmse.paperCheckpoints(1000).head == 5)
    val tiny = Nrmse.paperCheckpoints(10) // duplicates collapse, stays ascending
    assert(tiny == tiny.sorted && tiny.distinct == tiny && tiny.nonEmpty)
  }
}
