package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Bulk graph operations over canonical edge lists.
  *
  * Conventions: an *edge list* is a DataFrame (src: Long, dst: Long) with
  * `src < dst`, distinct rows, no self-loops (see [[canonicalize]]); a
  * *directed* edge list is its symmetrization (both orientations).
  */
object GraphOps {

  /** Canonical undirected form: drop self-loops, orient `src < dst`, dedupe. */
  def canonicalize(rawEdges: DataFrame): DataFrame = {
    rawEdges
      .where(col("src") =!= col("dst"))
      .select(
        least(col("src"), col("dst")).cast(LongType)    as "src",
        greatest(col("src"), col("dst")).cast(LongType) as "dst",
      )
      .distinct()
  }

  /** Both orientations of a canonical edge list: (u,v) and (v,u). */
  def symmetrize(edges: DataFrame): DataFrame = {
    edges.select(col("src") as "u", col("dst") as "v")
      .union(edges.select(col("dst") as "u", col("src") as "v"))
  }

  /** Per-node degree of a canonical edge list: (node, degree). */
  def degrees(edges: DataFrame): DataFrame = {
    symmetrize(edges).groupBy(col("u") as "node")
      .agg(count(lit(1)).cast(LongType) as "degree")
  }

  /** Largest connected component of a canonical edge list, with node ids
    * remapped to the contiguous range [0, |V_lcc|) (ascending by original
    * id, so the remap is deterministic). Returns (edges, nodeMap) where
    * nodeMap is (node, newId).
    *
    * The components come from a union-find over the edge list collected to
    * the driver (the CSR build collects it anyway, DESIGN.md §2). Each root
    * is its component's smallest id; the largest component wins, and on a
    * size tie the one with the smallest id. The remap is two shuffle joins
    * because the CSR neighbor order, and so every walk, follows the order
    * of the rows they emit.
    */
  def largestComponent(spark: SparkSession, edges: DataFrame): (DataFrame, DataFrame) = {
    val es = edges.select("src", "dst").collect()
    val src = es.map(_.getLong(0))
    val dst = es.map(_.getLong(1))
    val ids = (src ++ dst).distinct.sorted
    val parent = Array.range(0, ids.length)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    def index(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    var i = 0
    while (i < es.length) {
      val a = find(index(src(i))); val b = find(index(dst(i)))
      if (a != b) parent(math.max(a, b)) = math.min(a, b)
      i += 1
    }
    val root = Array.tabulate(ids.length)(find)
    val size = new Array[Int](ids.length)
    root.foreach(r => size(r) += 1)
    var top = 0
    size.indices.foreach(r => if (size(r) > size(top)) top = r)
    val kept = ids.indices.filter(root(_) == top).map(ids(_))
    import spark.implicits._
    val nodeMap = kept.zipWithIndex.map { case (node, newId) => (node, newId.toLong) }
      .toDF("node", "newId")
    val remapped = edges
      .join(nodeMap.withColumnRenamed("node", "src").withColumnRenamed("newId", "s2"), Seq("src"))
      .join(nodeMap.withColumnRenamed("node", "dst").withColumnRenamed("newId", "d2"), Seq("dst"))
      .select(
        least(col("s2"), col("d2"))    as "src",
        greatest(col("s2"), col("d2")) as "dst",
      )
    (remapped, nodeMap)
  }

  /** Remap a (node, label) DataFrame through the nodeMap from
    * [[largestComponent]], dropping nodes outside the component.
    */
  def remapLabels(labels: DataFrame, nodeMap: DataFrame): DataFrame = {
    labels.join(nodeMap, Seq("node"))
      .select(col("newId") as "node", col("label"))
  }
}
