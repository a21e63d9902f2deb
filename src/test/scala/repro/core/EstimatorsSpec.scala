package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.SparkSpec

class EstimatorsSpec extends SparkSpec {

  private def samples[A](gen: Gen[A], n: Int, seed: Long): Seq[A] =
    (0 until n).map(i => gen.pureApply(Gen.Parameters.default, Seed(seed * 1000 + i)))

  test("htInclusionProb: exact values") {
    assert(Estimators.htInclusionProb(1.0, 5) == 1.0)
    assert(math.abs(Estimators.htInclusionProb(0.5, 1) - 0.5) < 1e-12)
    assert(math.abs(Estimators.htInclusionProb(0.5, 2) - 0.75) < 1e-12)
  }

  test("htInclusionProb is monotone in k and bounded by 1") {
    for (p <- samples(Gen.choose(1e-6, 0.99), 50, 1)) {
      var prev = 0.0
      for (k <- 1 to 30) {
        val cur = Estimators.htInclusionProb(p, k)
        assert(cur >= prev && cur <= 1.0, s"p=$p k=$k")
        prev = cur
      }
    }
  }

  test("nsHansenHurwitz: |E|·hits/k") {
    assert(Estimators.nsHansenHurwitz(10, 3, 5) == 6.0)
    assert(Estimators.nsHansenHurwitz(100, 0, 7) == 0.0)
  }

  test("nsHorvitzThompson: distinct/(1-(1-1/|E|)^k)") {
    val e = 50L; val k = 10
    val expected = 4 / (1.0 - math.pow(1.0 - 1.0 / e, k))
    assert(math.abs(Estimators.nsHorvitzThompson(e, 4, k) - expected) < 1e-9)
  }

  test("nsHorvitzThompson recovers F exactly when k -> inf and all targets seen") {
    // inclusion probability -> 1, so the estimate equals the distinct count
    assert(math.abs(Estimators.nsHorvitzThompson(100, 17, 1000000) - 17.0) < 1e-6)
  }

  test("neHansenHurwitz: |E|·sum/k") {
    assert(Estimators.neHansenHurwitz(20, 1.5, 3) == 10.0)
  }

  test("neHorvitzThompson: hand-computed two-node case") {
    val nE = 10L; val k = 4
    val sampled = Seq((2, 5), (1, 2)) // (T, d)
    val expected = 0.5 * (
      2 / (1 - math.pow(1 - 5 / 20.0, k)) +
      1 / (1 - math.pow(1 - 2 / 20.0, k)))
    assert(math.abs(Estimators.neHorvitzThompson(nE, sampled, k) - expected) < 1e-9)
  }

  test("neReweighted: |V|·sumT/(2·sumInv)") {
    assert(Estimators.neReweighted(100, 0.5, 5.0) == 5.0)
  }

  test("reweightedCount: population·hits/weights, 0-safe") {
    assert(Estimators.reweightedCount(200, 1.0, 4.0) == 50.0)
    assert(Estimators.reweightedCount(200, 0.0, 0.0) == 0.0)
  }

  test("reweightedCount with unit weights: population·hits/k") {
    assert(Estimators.reweightedCount(100, 25.0, 50.0) == 50.0)
    // sums of 1.0 are exact, so the EX-MHRW/EX-MDRW estimate is bit-identical
    // to |H|·hits/k
    for (hits <- 0 to 60; k <- Seq(1, 7, 60, 200) if hits <= k)
      assert(Estimators.reweightedCount(104942, Seq.fill(hits)(1.0).sum, Seq.fill(k)(1.0).sum) ==
             104942.0 * hits / k)
  }

  test("estimators are homogeneous in the population size") {
    for (scale <- samples(Gen.choose(1L, 1000L), 40, 2)) {
      assert(Estimators.nsHansenHurwitz(scale * 10, 3, 5) ==
             scale * Estimators.nsHansenHurwitz(10, 3, 5))
      assert(Estimators.reweightedCount(scale * 10, 3.0, 5.0) ==
             scale * Estimators.reweightedCount(10, 3.0, 5.0))
    }
  }

  test("NS-HH is exactly unbiased under uniform edge sampling (enumeration)") {
    // E[F̂] = Σ_e (1/|E|)·|E|·I(e) = F for k = 1, and by linearity for any k.
    val g = repro.TestGraphs.connectedRandom(15, 25, seed = 61)
    val f = repro.TestGraphs.bruteForceF(g, 1, 2)
    val mean = repro.TestGraphs.edgeList(g).map { case (u, v) =>
      Estimators.nsHansenHurwitz(g.numEdges, if (g.isTargetEdge(u, v, 1, 2)) 1 else 0, 1)
    }.sum / g.numEdges
    assert(math.abs(mean - f) < 1e-9)
  }

  test("NE-HH is exactly unbiased under stationary node sampling (enumeration)") {
    // E[F̂] = Σ_u π(u)·|E|·T(u)/d(u) = Σ_u T(u)/2 = F for k = 1.
    val g = repro.TestGraphs.connectedRandom(15, 25, seed = 62)
    val f = repro.TestGraphs.bruteForceF(g, 1, 2)
    val mean = (0 until g.numNodes).map { u =>
      val pi = g.degree(u) / (2.0 * g.numEdges)
      pi * Estimators.neHansenHurwitz(g.numEdges, g.targetEdgesAt(u, 1, 2).toDouble / g.degree(u), 1)
    }.sum
    assert(math.abs(mean - f) < 1e-9)
  }
}
