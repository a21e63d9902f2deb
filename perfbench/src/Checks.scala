package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.{Bounds, GroundTruth, Nrmse}
import repro.exp.{Datasets, Tables}
import repro.graph.CsrGraph

/** Output checks, run outside the timed window. All are self-consistency
  * checks (no golden values), so they stay valid when the generated graphs
  * change.
  */
object Checks {

  /** Relative tolerance for values a Spark aggregation and a driver loop
    * sum in different orders.
    */
  val RelTol = 1e-9

  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** The CSR graph is one connected component (union-find over its edges),
    * with no self-loops and no duplicate neighbour entries. Returns the
    * problem, if any.
    */
  def lcc(g: CsrGraph): Option[String] = {
    val n = g.numNodes
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    var components = n
    var u = 0
    while (u < n) {
      val slice = java.util.Arrays.copyOfRange(g.neighbors, g.offsets(u), g.offsets(u + 1))
      java.util.Arrays.sort(slice)
      var i = 0
      while (i < slice.length) {
        val v = slice(i)
        if (v == u) return Some(s"self-loop at node $u")
        if (i > 0 && slice(i - 1) == v) return Some(s"duplicate neighbour $v of node $u")
        val (ru, rv) = (find(u), find(v))
        if (ru != rv) { parent(ru) = rv; components -= 1 }
        i += 1
      }
      u += 1
    }
    if (components == 1) None else Some(s"$components components, expected 1")
  }

  /** Each pair's F equals the driver-side count over the CSR. */
  def pairCounts(b: Datasets.Built): Option[String] =
    b.pairs.collectFirst {
      case p if GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2) != p.f =>
        s"pair (${p.t1},${p.t2}): F=${p.f} but CSR count " +
          GroundTruth.targetEdgeCountLocal(b.g, p.t1, p.t2)
    }

  /** Theorems 4.1–4.5 recomputed on the driver from T(u) and d(u) over the
    * CSR, with eps = delta = 0.1 as in Tables 18–22.
    */
  def expectedBounds(g: CsrGraph, p: Datasets.LabelPair,
                     eps: Double = 0.1, delta: Double = 0.1): Bounds.SampleBounds = {
    val nV = g.numNodes.toDouble
    val nE = g.numEdges
    val f = p.f.toDouble
    var sT = 0.0; var sInv = 0.0; var neHT = Double.NegativeInfinity
    val bY = 4.0 * delta * eps * eps * f * f / nV
    var u = 0
    while (u < g.numNodes) {
      val t = g.targetEdgesAt(u, p.t1, p.t2).toDouble
      val d = g.degree(u).toDouble
      sT += 2.0 * nE * t * t / d
      sInv += 2.0 * nE / d
      neHT = math.max(neHT, math.log((t * t + bY) / bY) / -math.log(1.0 - d / (2.0 * nE)))
      u += 1
    }
    val a = 1.0 - 1.0 / nE
    val b = delta * eps * eps * f * f / nE
    val kT = (sT - 4.0 * f * f) / (4.0 * eps * eps * f * f * delta)
    Bounds.SampleBounds(
      nsHH = (nE.toDouble * f - f * f) / (eps * eps * f * f * delta),
      nsHT = math.log((1.0 + b) / b) / math.log(1.0 / a),
      neHH = kT,
      neHT = neHT,
      neRW = math.max(18.0 * kT, 18.0 * (sInv - nV * nV) / (eps * eps * nV * nV * delta)),
    )
  }

  def bounds(g: CsrGraph, p: Datasets.LabelPair, got: Bounds.SampleBounds): Option[String] = {
    val want = expectedBounds(g, p)
    val bad = got.productElementNames.zip(got.productIterator.zip(want.productIterator))
      .collect { case (n, (x: Double, y: Double)) if !close(x, y) => s"$n=$x, expected $y" }
    if (bad.isEmpty) None else Some(s"pair (${p.t1},${p.t2}): ${bad.mkString(", ")}")
  }

  /** All ten algorithms at every checkpoint, all finite. */
  def gridComplete(t: Tables.NrmseTable): Option[String] = {
    val missing = for {
      alg <- Nrmse.AllAlgorithms
      k <- t.checkpoints
      v = t.results.get(alg).flatMap(_.get(k))
      if !v.exists(x => !x.isNaN && !x.isInfinite)
    } yield s"$alg@$k=$v"
    if (missing.isEmpty) None else Some(s"missing or non-finite cells: ${missing.take(5).mkString(", ")}")
  }

  /** `Nrmse.run` over the first `prefix` simulations equals the NRMSE of
    * sequential `Nrmse.simulate` calls at the same seeds.
    */
  def nrmsePrefix(spark: SparkSession, b: Datasets.Built, p: Datasets.LabelPair,
                  seedBase: Long, prefix: Int): Option[String] = {
    val cps = Nrmse.paperCheckpoints(b.nV)
    val got = Nrmse.run(spark, b.g, p.t1, p.t2, cps, b.burnIn, prefix, p.f, seedBase)
    val sq = (0 until prefix)
      .flatMap(s => Nrmse.simulate(b.g, p.t1, p.t2, cps, b.burnIn, seedBase + s))
      .groupMapReduce(r => (r._1, r._2))(r => math.pow(r._3 - p.f, 2))(_ + _)
    val bad = sq.collect {
      case ((alg, k), s2) if !got.get(alg).flatMap(_.get(k)).exists(close(_, math.sqrt(s2 / prefix) / p.f)) =>
        s"$alg@$k"
    }
    if (bad.isEmpty && sq.size == got.values.map(_.size).sum) None
    else Some(s"pair (${p.t1},${p.t2}): Nrmse.run differs from sequential simulate at ${bad.take(5).mkString(", ")}")
  }

  /** Order-independent checksum of an NRMSE grid, with values rounded to 9
    * significant digits so that summation-order noise does not change it.
    */
  def gridChecksum(t: Tables.NrmseTable): String = {
    val cells = for {
      (alg, m) <- t.results.toSeq
      (k, v) <- m.toSeq
    } yield f"$alg|$k|$v%.8e"
    val md = java.security.MessageDigest.getInstance("SHA-256")
    cells.sorted.foreach(c => md.update((c + "\n").getBytes("UTF-8")))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
