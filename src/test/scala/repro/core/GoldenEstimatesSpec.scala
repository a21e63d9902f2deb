package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs

/** Raw `Nrmse.simulate` estimates pinned bit for bit.
  *
  * The fixture holds `doubleToRawLongBits` of every estimate for a fixed
  * graph, two label pairs (abundant (0,0) and rare (1,2)) and a range of
  * seeds. A refactor of the samplers or of the simulation wiring must
  * leave every bit in place. Regenerate only for an intended change of the
  * estimates, with `sbt "Test/runMain repro.core.GoldenEstimates"` from the
  * repository root.
  */
object GoldenEstimates {

  val Resource = "golden-estimates.txt"
  val Pairs: Seq[(Int, Int)] = Seq((0, 0), (1, 2))
  val Checkpoints: Seq[Int] = Seq(1, 25, 100, 300)
  val BurnIn = 40
  val Seeds: Range = 0 until 60

  lazy val graph = TestGraphs.rareLabelGraph(300, nSpecial = 12, seed = 77)

  /** A header naming each column (algorithm@k), then one line per
    * (pair, seed): `t1 t2 seed` and the hex bits in `simulate`'s order.
    */
  def render(): Seq[String] = {
    val rows = for ((t1, t2) <- Pairs; seed <- Seeds) yield
      (t1, t2, seed, Nrmse.simulate(graph, t1, t2, Checkpoints, BurnIn, seed.toLong))
    val header = "# t1 t2 seed " + rows.head._4.map { case (a, k, _) => s"$a@$k" }.mkString(" ")
    header +: rows.map { case (t1, t2, seed, ests) =>
      (Seq(t1, t2, seed).map(_.toString) ++
        ests.map(e => f"${java.lang.Double.doubleToRawLongBits(e._3)}%016x")).mkString(" ")
    }
  }

  def main(args: Array[String]): Unit = {
    val out = Paths.get("src/test/resources", Resource)
    Files.write(out, render().asJava, StandardCharsets.UTF_8)
    println(s"wrote $out")
  }
}

class GoldenEstimatesSpec extends AnyFunSuite {

  /** (t1, t2, seed, algorithm@k) -> hex bits, read from rendered lines. */
  private def cells(lines: Seq[String]): Map[(String, String, String, String), String] = {
    val cols = lines.head.split(' ').drop(4)
    lines.tail.flatMap { l =>
      val f = l.split(' ')
      cols.zip(f.drop(3)).map { case (c, bits) => (f(0), f(1), f(2), c) -> bits }
    }.toMap
  }

  test("Nrmse.simulate reproduces the golden estimates bit for bit") {
    val src = scala.io.Source.fromResource(GoldenEstimates.Resource)
    val want = cells(try src.getLines().toVector finally src.close())
    val got = cells(GoldenEstimates.render())
    assert(want.size == GoldenEstimates.Pairs.size * GoldenEstimates.Seeds.size *
      Nrmse.AllAlgorithms.size * GoldenEstimates.Checkpoints.size)
    assert(got.keySet == want.keySet)
    val moved = want.keys.filter(k => got(k) != want(k)).toSeq.sorted
    if (moved.nonEmpty) fail(s"${moved.size} estimates moved, first: ${moved.take(3).mkString(", ")}")
  }

  test("the golden fixture covers both label regimes") {
    val g = GoldenEstimates.graph
    val fs = GoldenEstimates.Pairs.map { case (t1, t2) => TestGraphs.bruteForceF(g, t1, t2) }
    assert(fs(1) > 0 && fs(1) * 20 < fs(0), s"F per pair: $fs")
  }
}
