package repro.core

import java.util.SplittableRandom

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

import repro.baselines.LineGraphWalks
import repro.graph.CsrGraph

/** NRMSE experiment harness (paper Eq. 24).
  *
  * The walk itself is sequential; the parallel dimension is the paper's 200
  * independent simulations per table cell. The CSR graph is broadcast once
  * and an RDD of simulation indices fans the walks out across cores. Each
  * simulation yields one [estimator][checkpoint] array; its squared errors
  * are summed element-wise, so the array position is the (algorithm,
  * budget) key and no shuffle is needed.
  */
object Nrmse {

  /** The ten algorithms of Table 2 in the paper's row order. */
  val AllAlgorithms: Seq[String] = Seq(
    NeighborSample.HH, NeighborSample.HT,
    NeighborExploration.HH, NeighborExploration.HT, NeighborExploration.RW,
    LineGraphWalks.MDRW, LineGraphWalks.MHRW, LineGraphWalks.RW,
    LineGraphWalks.RCMH, LineGraphWalks.GMD,
  )

  /** Row names of [[estimates]], in RNG-split order (not the display order
    * of [[AllAlgorithms]]).
    */
  private val Names: Seq[String] =
    NeighborSample.Names ++ NeighborExploration.Names ++ LineGraphWalks.defaultVariants.map(_.name)

  /** One full simulation: every algorithm on its own RNG stream split from
    * `seed`, as one [estimator][checkpoint] array with rows in [[Names]]
    * order.
    */
  private def estimates(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int],
                        burnInSteps: Int, seed: Long): Array[Double] = {
    val root = new SplittableRandom(seed)
    // split() gives statistically independent streams per algorithm family;
    // the split order fixes every stream, so it must not change
    val ns = NeighborSample.run(g, t1, t2, checkpoints, burnInSteps, root.split())
    val ne = NeighborExploration.run(g, t1, t2, checkpoints, burnInSteps, root.split())
    val ex = LineGraphWalks.defaultVariants.map(v =>
      LineGraphWalks.run(g, v, t1, t2, checkpoints, burnInSteps, root.split()))
    Array.concat(ns +: ne +: ex: _*)
  }

  /** Element-wise a += b; returns a. */
  private def addInto(a: Array[Double], b: Array[Double]): Array[Double] = {
    var i = 0
    while (i < a.length) { a(i) += b(i); i += 1 }
    a
  }

  /** The task function of [[run]]: the element-wise sum of squared errors
    * (F̂ − F)² over one partition's simulation indices, in index order.
    *
    * A named class rather than a lambda: Spark's closure cleaner parses the
    * bytecode of a lambda's enclosing class, and every task deserializes a
    * lambda through `LambdaDeserialize`, on every job. That per-grid work is
    * JIT-compiled only after several grids, on the cores the walks run on.
    */
  private final class SquaredErrors(bc: Broadcast[CsrGraph], t1: Int, t2: Int,
                                    checkpoints: Seq[Int], burnInSteps: Int,
                                    f: Long, seedBase: Long)
      extends ((TaskContext, Iterator[Int]) => Array[Double]) with Serializable {
    def apply(ctx: TaskContext, sims: Iterator[Int]): Array[Double] = {
      val g = bc.value
      def sq(sim: Int): Array[Double] = {
        val est = estimates(g, t1, t2, checkpoints, burnInSteps, seedBase + sim)
        var i = 0
        while (i < est.length) { est(i) = (est(i) - f) * (est(i) - f); i += 1 }
        est
      }
      val sum = sq(sims.next())
      while (sims.hasNext) addInto(sum, sq(sims.next()))
      sum
    }
  }

  /** One full simulation as (algorithm, k, estimate) per algorithm and
    * checkpoint.
    */
  def simulate(g: CsrGraph, t1: Int, t2: Int, checkpoints: Seq[Int],
               burnInSteps: Int, seed: Long): Seq[(String, Int, Double)] = {
    val est = estimates(g, t1, t2, checkpoints, burnInSteps, seed)
    for ((name, e) <- Names.zipWithIndex; (k, c) <- checkpoints.zipWithIndex)
      yield (name, k, est(e * checkpoints.size + c))
  }

  /** NRMSE(F̂) = sqrt(E[(F̂−F)²])/F (paper Eq. 24) over `sims` simulations
    * with seeds `seedBase + sim`, as algorithm -> k -> NRMSE.
    */
  def run(spark: SparkSession, g: CsrGraph, t1: Int, t2: Int,
          checkpoints: Seq[Int], burnInSteps: Int, sims: Int, f: Long,
          seedBase: Long = 42L): Map[String, Map[Int, Double]] = {
    val sc = spark.sparkContext
    val bc = sc.broadcast(g)
    val slices = math.min(sims, sc.defaultParallelism * 2)
    // Per-partition partials are kept by partition index and added in
    // partition order, not in task completion order as RDD.reduce would, so
    // the sums repeat bit for bit from run to run.
    val partials = new Array[Array[Double]](slices)
    sc.runJob(sc.parallelize(0 until sims, slices),
              new SquaredErrors(bc, t1, t2, checkpoints, burnInSteps, f, seedBase),
              0 until slices, (i: Int, a: Array[Double]) => partials(i) = a)
    val sumSq = partials.reduce(addInto)
    val nC = checkpoints.size
    Names.zipWithIndex.map { case (name, e) =>
      name -> checkpoints.zipWithIndex.map { case (k, c) =>
        k -> math.sqrt(sumSq(e * nC + c) / sims) / f
      }.toMap
    }.toMap
  }

  /** The paper's budget grid: k = {0.5%, 1.0%, …, 5.0%}·|V| (ceil, ≥1). */
  def paperCheckpoints(nV: Long): Seq[Int] =
    (1 to 10).map(j => math.max(1, math.ceil(nV * 0.005 * j).toInt)).distinct
}
