package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphOps

class BoundsSpec extends SparkSpec {

  private lazy val g = TestGraphs.connectedRandom(40, 80, seed = 91, nLabels = 3)
  private lazy val f = TestGraphs.bruteForceF(g, 1, 2)

  /** (d(u), T(u)) for every node, from the DataFrame ground truth
    * (`incidentTargetCounts` ⋈ `degrees`): a reference independent of the
    * CSR pass in [[Bounds]].
    */
  private lazy val reference: Seq[(Double, Double)] = {
    val edges = TestGraphs.edgesDf(spark, g)
    GroundTruth.incidentTargetCounts(edges, TestGraphs.labelsDf(spark, g), 1, 2)
      .join(GraphOps.degrees(edges), Seq("node"))
      .select(col("degree"), col("t")).collect()
      .map(r => (r.getLong(0).toDouble, r.getLong(1).toDouble)).toSeq
  }

  /** Theorems 4.1–4.5 evaluated on [[reference]]. */
  private def expected(eps: Double, delta: Double): Bounds.SampleBounds = {
    assert(reference.size == g.numNodes)
    val nE = g.numEdges; val nV = g.numNodes.toDouble
    val e2f2 = eps * eps * f.toDouble * f
    val sT = reference.map { case (d, t) => 2.0 * nE * t * t / d }.sum
    val sInv = reference.map { case (d, _) => 2.0 * nE / d }.sum
    val b = 4.0 * delta * e2f2 / nV
    Bounds.SampleBounds(
      nsHH = (nE.toDouble * f - f.toDouble * f) / (e2f2 * delta),
      nsHT = {
        val bb = delta * e2f2 / nE
        math.log((1 + bb) / bb) / math.log(1.0 / (1.0 - 1.0 / nE))
      },
      neHH = (sT - 4.0 * f * f) / (4.0 * e2f2 * delta),
      neHT = reference.map { case (d, t) =>
        math.log((t * t + b) / b) / -math.log(1.0 - d / (2.0 * nE))
      }.max,
      neRW = math.max(18.0 * (sT - 4.0 * f * f) / (4.0 * e2f2 * delta),
                      18.0 * (sInv - nV * nV) / (eps * eps * nV * nV * delta)),
    )
  }

  private def assertClose(got: Double, want: Double): Unit =
    assert(math.abs(got - want) <= math.abs(want) * 1e-9, s"got $got, expected $want")

  test("Theorem 4.1 closed form: (|E|F - F^2)/(eps^2 F^2 delta)") {
    val nE = g.numEdges
    val expected = (nE.toDouble * f - f.toDouble * f) / (0.01 * f.toDouble * f * 0.1)
    assert(math.abs(Bounds.nsHansenHurwitz(nE, f, 0.1, 0.1) - expected) < 1e-6)
  }

  test("Theorem 4.2 closed form matches a direct evaluation") {
    val nE = g.numEdges
    val b = 0.1 * 0.01 * f.toDouble * f / nE
    val expected = math.log((1 + b) / b) / math.log(1.0 / (1.0 - 1.0 / nE))
    assert(math.abs(Bounds.nsHorvitzThompson(nE, f, 0.1, 0.1) - expected) < 1e-6)
  }

  test("Theorem 4.3 DataFrame aggregation matches local computation") {
    assertClose(Bounds.neHansenHurwitz(g, 1, 2, f, 0.1, 0.1), expected(0.1, 0.1).neHH)
  }

  test("Theorem 4.4 DataFrame max matches local computation") {
    assertClose(Bounds.neHorvitzThompson(g, 1, 2, f, 0.1, 0.1), expected(0.1, 0.1).neHT)
  }

  test("Theorem 4.5 DataFrame aggregation matches local computation") {
    assertClose(Bounds.neReweighted(g, 1, 2, f, 0.1, 0.1), expected(0.1, 0.1).neRW)
  }

  test("all five bounds are positive and finite on a real fixture") {
    val b = Bounds.all(g, 1, 2, f)
    val want = expected(0.1, 0.1)
    Seq(b.nsHH -> want.nsHH, b.nsHT -> want.nsHT, b.neHH -> want.neHH,
        b.neHT -> want.neHT, b.neRW -> want.neRW).foreach { case (v, w) =>
      assert(v > 0 && java.lang.Double.isFinite(v), s"$b")
      assertClose(v, w)
    }
  }

  test("bounds grow as eps shrinks") {
    val loose = Bounds.all(g, 1, 2, f, eps = 0.2, delta = 0.1)
    val tight = Bounds.all(g, 1, 2, f, eps = 0.05, delta = 0.1)
    assert(tight.nsHH > loose.nsHH)
    assert(tight.nsHT > loose.nsHT)
    assert(tight.neHH > loose.neHH)
    assert(tight.neHT > loose.neHT)
    assert(tight.neRW > loose.neRW)
  }

  test("bounds grow as delta shrinks") {
    val loose = Bounds.all(g, 1, 2, f, eps = 0.1, delta = 0.2)
    val tight = Bounds.all(g, 1, 2, f, eps = 0.1, delta = 0.05)
    assert(tight.nsHH > loose.nsHH && tight.nsHT > loose.nsHT && tight.neHH > loose.neHH)
  }

  test("NS-HH bound shrinks as F grows (easier problems need fewer samples)") {
    val nE = 1000L
    assert(Bounds.nsHansenHurwitz(nE, 500, 0.1, 0.1) <
           Bounds.nsHansenHurwitz(nE, 10, 0.1, 0.1))
  }

  test("star-graph NE bounds: exploration of the hub nails F quickly") {
    // star with center label 1, leaves 2: T(center)=d(center), T(leaf)=1,
    // so NE-HH variance term Σ 2|E|T²/d − 4F² = 2E(E + E²... ) — just check
    // the bound is dramatically smaller than the NS-HH bound is NOT implied;
    // instead check both formulas produce the hand-computed values.
    val star = TestGraphs.star(10)
    val fS = 9L // |E| = F = 9
    // Σ 2E·T²/d = center: 2·9·81/9=162, each leaf: 2·9·1/1=18 ⇒ 162+9·18=324
    val want = (324.0 - 4.0 * fS * fS) / (4.0 * 0.01 * fS * fS * 0.1)
    val got = Bounds.neHansenHurwitz(star, 1, 2, fS, 0.1, 0.1)
    assert(math.abs(got - want) < 1e-9)
  }
}
