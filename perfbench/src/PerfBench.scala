package perfbench

import java.util.SplittableRandom

import scala.collection.mutable

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.baselines.LineGraphWalks
import repro.core.{GroundTruth, MixingTime, NeighborExploration, NeighborSample, Nrmse}
import repro.exp.{Datasets, Tables}
import repro.exp.Datasets.{Built, LabelPair}
import repro.graph.{CsrGraph, GraphOps, SocialGraphGen}

/** Benchmark driver: one workload per JVM, one table job at a time.
  *
  * Usage: `PerfBench <workload> <seed> <seconds> <trace 0|1> <launch epoch s>`.
  * Prints one JSON line with the metrics, op counts, fingerprint and
  * environment; `perfbench/run.py` turns it into the result line.
  *
  * The seed is the dataset generator seed (each spec's own seed by default);
  * walks use the paper tables' `seedBase` = 42. The program is driven only
  * through `Datasets.build`, `Tables.nrmseTable` and `Tables.boundsRow`;
  * the traced run also calls the layer functions behind `Datasets.build`.
  */
object PerfBench {

  val SeedBase = 42L
  /** Simulations in the `Nrmse.run`-versus-sequential prefix check. */
  val PrefixSims = 40

  /** One workload: a dataset, the simulations per NRMSE grid, and whether
    * the timed window is one whole table job or a closed loop of grids on a
    * dataset built during setup.
    */
  final case class Workload(name: String, spec: Datasets.Spec, sims: Int, tableJob: Boolean)

  val workloads: Map[String, Workload] = Seq(
    Workload("facebook-tables", Datasets.facebook, sims = 200, tableJob = true),
    Workload("facebook-sims", Datasets.facebook, sims = 20000, tableJob = false),
  ).map(w => w.name -> w).toMap

  type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  def main(args: Array[String]): Unit = {
    val Array(name, seedArg, secondsArg, traceArg, launchArg) = args
    val w0 = workloads.getOrElse(name, sys.error(s"unknown workload $name; known: ${workloads.keys.mkString(", ")}"))
    val w = w0.copy(spec = w0.spec.copy(seed = seedArg.toLong))
    launch = launchArg.toDouble
    val spark = SparkSpec.shared
    val ops = new Ops
    val metrics: Metrics = mutable.LinkedHashMap.empty
    val fp = mutable.LinkedHashMap.empty[String, Any]
    try {
      if (traceArg == "1") traced(spark, w, ops, metrics, fp)
      else {
        untraced(spark, w, secondsArg.toDouble, ops, metrics, fp)
        System.gc()
        val heap = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
        metrics("live_heap_mb") = (heap.getUsed / 1e6, "MB")
      }
      metrics("peak_rss_mb") = (peakRssMb(), "MB")
      log("done")
      println(new ObjectMapper().registerModule(DefaultScalaModule).writeValueAsString(Map(
        "attempted" -> ops.nAttempted, "failed" -> ops.nFailed,
        "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
        "fingerprint" -> fp, "environment" -> environment(spark),
        "problems" -> ops.problems,
      )))
    } finally spark.stop()
  }

  private def now(): Double = System.nanoTime() / 1e9

  /** Epoch seconds at which `run.py` launched this JVM. */
  private var launch = 0.0

  private def sinceLaunch(): Double = System.currentTimeMillis() / 1e3 - launch

  /** Progress on stderr, in seconds since launch. */
  private def log(what: String): Unit = Console.err.println(f"[perfbench] ${sinceLaunch()}%7.2f s  $what")

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Untraced run: the end-to-end metrics. The table workload times one
    * whole table job; the sims workload builds its dataset and runs one
    * warm-up grid in setup, then times grids in a closed loop for `seconds`.
    */
  private def untraced(spark: SparkSession, w: Workload, seconds: Double, ops: Ops, metrics: Metrics, fp: mutable.Map[String, Any]): Unit = {
    def grid(b: Built, p: LabelPair, seedBase: Long) =
      ops(s"grid (${p.t1},${p.t2})@$seedBase")(Tables.nrmseTable(spark, b, p, w.sims, seedBase))

    if (w.tableJob) {
      metrics("setup_s") = (sinceLaunch(), "s")
      val t0 = now()
      val built = ops("build")(Datasets.build(spark, w.spec)).getOrElse(return)
      val grids = built.pairs.flatMap(p => grid(built, p, SeedBase).map(p -> _))
      val bounds = built.pairs.flatMap(p => ops(s"bounds (${p.t1},${p.t2})")(Tables.boundsRow(spark, built, p)).map(p -> _))
      val tableS = now() - t0
      metrics("table_s") = (tableS, "s")
      metrics("sims_per_s") = (grids.size * w.sims / tableS, "1/s")
      log("window closed")
      check(spark, built, grids, bounds, ops, fp)
    } else {
      val built = ops("build")(Datasets.build(spark, w.spec)).getOrElse(return)
      val p = built.pairs.head
      // Warm-up grid, untimed: the first 20,000-simulation grid in a JVM
      // runs 2-3x as long as later ones while the walk code is compiled.
      val warm = grid(built, p, SeedBase).map(p -> _).toSeq
      metrics("setup_s") = (sinceLaunch(), "s")
      val times = mutable.Buffer.empty[Double]
      val timed = mutable.Buffer.empty[(Long, Tables.NrmseTable)]
      val t0 = now()
      while (now() - t0 < seconds) {
        val seedBase = SeedBase + (times.size + 1L) * w.sims
        val tg = now()
        grid(built, p, seedBase).foreach(t => timed += seedBase -> t)
        times += now() - tg
      }
      val gridS = median(times.toSeq)
      metrics("table_s") = (gridS, "s")
      metrics("sims_per_s") = (w.sims / gridS, "1/s")
      log("window closed")
      check(spark, built, warm, Nil, ops, fp)
      timed.foreach { case (seedBase, t) =>
        Checks.gridComplete(t).foreach(ops.fail(s"grid (${p.t1},${p.t2})@$seedBase", _))
      }
    }
  }

  /** Output checks and the fingerprint. `grids` are the pairs' grids at
    * `SeedBase`.
    */
  private def check(spark: SparkSession, b: Built, grids: Seq[(LabelPair, Tables.NrmseTable)],
                    bounds: Seq[(LabelPair, repro.core.Bounds.SampleBounds)],
                    ops: Ops, fp: mutable.Map[String, Any]): Unit = {
    Checks.lcc(b.g).foreach(ops.fail("build", _))
    Checks.pairCounts(b).foreach(ops.fail("build", _))
    bounds.foreach { case (p, r) => Checks.bounds(b.g, p, r).foreach(ops.fail(s"bounds (${p.t1},${p.t2})", _)) }
    grids.foreach { case (p, t) =>
      val op = s"grid (${p.t1},${p.t2})@$SeedBase"
      Checks.gridComplete(t).foreach(ops.fail(op, _))
      try Checks.nrmsePrefix(spark, b, p, SeedBase, PrefixSims).foreach(ops.fail(op, _))
      catch { case scala.util.control.NonFatal(e) => ops.fail(op, s"prefix check threw $e") }
    }
    fp("nV") = b.nV
    fp("nE") = b.nE
    fp("burn_in") = b.burnIn
    fp("pairs") = b.pairs.map(p => Seq(p.t1, p.t2, p.f))
    fp("grids") = grids.map { case (p, t) => s"${p.t1},${p.t2}" -> Checks.gridChecksum(t) }.toMap
  }

  /** Traced run: `Datasets.build` untraced (its time and fingerprint are the
    * reference), then a replica of `Datasets.buildUncached` that forces each
    * layer's DataFrames at its boundary so that its work lands in its own
    * span, then the workload's grids and bounds rows in spans, then the
    * walks timed sequentially on the driver at the grids' seeds.
    */
  private def traced(spark: SparkSession, w: Workload, ops: Ops, metrics: Metrics,
                     fp: mutable.Map[String, Any]): Unit = {
    val sc = spark.sparkContext
    val listener = new LayerListener
    sc.addSparkListener(listener)
    val tr = new Tracer(sc)
    val spec = w.spec

    val t0 = now()
    val ref = ops("build")(Datasets.build(spark, spec)).getOrElse(return)
    val untracedBuild = now() - t0

    val (raw, rawEdges) = tr.span("gen") {
      val r = SocialGraphGen.edges(spark, spec.n, spec.candidateEdges, seed = spec.seed).cache()
      (r, r.count())
    }
    val (edges, nodeMap) = tr.span("lcc") {
      val (e0, m0) = GraphOps.largestComponent(spark, raw)
      val m = m0.cache(); m.count()
      val e = e0.cache(); e.count()
      (e, m)
    }
    val (degrees, labels) = tr.span("labels") {
      val d = GraphOps.degrees(edges).cache(); d.count()
      val l = (spec.scheme match {
        case Datasets.Gender(frac1) =>
          GraphOps.remapLabels(SocialGraphGen.genderLabels(spark, spec.n, frac1, spec.seed + 1), nodeMap)
        case Datasets.ZipfLocations(nLabels, s) =>
          GraphOps.remapLabels(SocialGraphGen.zipfLabels(spark, spec.n, nLabels, s, spec.seed + 1), nodeMap)
        case Datasets.DegreeBuckets => SocialGraphGen.degreeLabels(d)
      }).cache()
      l.count()
      (d, l)
    }
    val g = tr.span("csr")(CsrGraph.fromDataFrames(edges, labels))
    val burnIn = tr.span("mixing")(MixingTime.estimate(g, eps = 1e-3, extraStarts = 2, maxSteps = 1000))
    val pairs = tr.span("pairs")(spec.scheme match {
      case Datasets.Gender(_) => Seq(LabelPair(1, 2, GroundTruth.targetEdgeCount(edges, labels, 1, 2)))
      case _ => Datasets.quartilePairs(GroundTruth.labelPairCounts(edges, labels), spec.nPairs, spec.minPairCount)
    })
    val b = Built(spec.name, g, edges, labels, degrees, burnIn, pairs)
    val spans = Seq("gen", "lcc", "labels", "csr", "mixing", "pairs")
    val spanSum = spans.map(tr.secondsOf).sum
    ops.check("replica", (b.nV, b.nE, b.burnIn, b.pairs) == (ref.nV, ref.nE, ref.burnIn, ref.pairs),
      s"replica (|V|,|E|,burn-in,pairs)=${(b.nV, b.nE, b.burnIn, b.pairs)} but Datasets.build gives " +
        s"${(ref.nV, ref.nE, ref.burnIn, ref.pairs)}")

    // Every pair's grid at the fingerprint seed, and its bounds row, on both
    // workloads, so that every layer reports on every workload.
    val grids = b.pairs.flatMap { p =>
      ops(s"grid (${p.t1},${p.t2})@$SeedBase")(tr.span("nrmse")(Tables.nrmseTable(spark, b, p, w.sims, SeedBase))).map(p -> _)
    }
    val bounds = b.pairs.flatMap { p =>
      ops(s"bounds (${p.t1},${p.t2})")(tr.span("bounds")(Tables.boundsRow(spark, b, p))).map(p -> _)
    }
    listener.drain(sc)

    val walkS = walkTimes(b, grids.map(_._1), w.sims)
    check(spark, b, grids, bounds, ops, fp)

    def layerMetrics(layer: String, calls: Int = 1): Unit = {
      val c = listener.of(layer)
      val s = tr.secondsOf(layer)
      metrics(s"$layer.s") = (s / math.max(1, calls), "s")
      metrics(s"$layer.jobs") = (c.jobs.toDouble, "count")
      metrics(s"$layer.tasks") = (c.tasks.toDouble, "count")
      metrics(s"$layer.shuffle_mb") = (c.shuffleBytes / 1e6, "MB")
      metrics(s"$layer.task_s") = (c.taskMs / 1e3, "s")
      metrics(s"$layer.core_util") = (c.taskMs / 1e3 / (s * sc.defaultParallelism), "ratio")
    }
    spans.foreach(layerMetrics(_))
    layerMetrics("nrmse", tr.callsOf("nrmse"))
    layerMetrics("bounds", tr.callsOf("bounds"))
    metrics("gen.edge_yield") = (rawEdges.toDouble / spec.candidateEdges, "ratio")
    metrics("csr.mb") = ((g.offsets.length + g.neighbors.length + g.labels.length) * 4.0 / 1e6, "MB")
    metrics("mixing.burn_in") = (burnIn.toDouble, "steps")
    metrics("nrmse.walk_share") = (walkS.values.sum / (listener.of("nrmse").taskMs / 1e3), "ratio")
    val nSims = grids.size.toDouble * w.sims
    walkS.foreach { case (k, s) => metrics(s"walk.$k.us_per_sim") = (s / nSims * 1e6, "us") }
    metrics("trace.build_spans_s") = (spanSum, "s")
    metrics("trace.build_untraced_s") = (untracedBuild, "s")
  }

  private val walkKey: Map[String, String] = Map(
    LineGraphWalks.RW -> "ex_rw", LineGraphWalks.MHRW -> "ex_mhrw", LineGraphWalks.MDRW -> "ex_mdrw",
    LineGraphWalks.RCMH -> "ex_rcmh", LineGraphWalks.GMD -> "ex_gmd")

  /** Seconds per algorithm family for `sims` simulations of each pair, run
    * sequentially on the driver with the seeds, checkpoints, burn-in and
    * RNG splits of `Nrmse.simulate`.
    */
  private def walkTimes(b: Built, pairs: Seq[LabelPair], sims: Int): mutable.LinkedHashMap[String, Double] = {
    val acc = mutable.LinkedHashMap.empty[String, Double]
    def timed(key: String)(body: => Unit): Unit = {
      val t0 = System.nanoTime(); body
      acc(key) = acc.getOrElse(key, 0.0) + (System.nanoTime() - t0) / 1e9
    }
    val cps = Nrmse.paperCheckpoints(b.nV)
    for (p <- pairs; s <- 0 until sims) {
      val root = new SplittableRandom(SeedBase + s)
      timed("ns")(NeighborSample.run(b.g, p.t1, p.t2, cps, b.burnIn, root.split()))
      timed("ne")(NeighborExploration.run(b.g, p.t1, p.t2, cps, b.burnIn, root.split()))
      LineGraphWalks.defaultVariants.foreach { v =>
        timed(walkKey(v.name))(LineGraphWalks.run(b.g, v, p.t1, p.t2, cps, b.burnIn, root.split()))
      }
    }
    acc
  }

  /** VmHWM of this JVM: Spark local mode runs inside it. */
  private def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024
    }.getOrElse(sys.error("no VmHWM in /proc/self/status"))
    finally src.close()
  }

  private def environment(spark: SparkSession): Map[String, Any] = Map(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "jvm" -> System.getProperty("java.version"),
    "spark" -> spark.version,
  )
}
