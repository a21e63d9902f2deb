package repro.graph

import java.util.SplittableRandom

import repro.{SparkSpec, TestGraphs}

class LineGraphSpec extends SparkSpec {

  test("lineDegree formula d(u)+d(v)-2 on known shapes") {
    val star = TestGraphs.star(6)   // center degree 5, leaves 1
    TestGraphs.edgeList(star).foreach { case (u, v) =>
      assert(LineGraph.lineDegree(star, u, v) == 4)
    }
    val path = TestGraphs.path(4)   // degrees 1,2,2,1
    assert(LineGraph.lineDegree(path, 0, 1) == 1)
    assert(LineGraph.lineDegree(path, 1, 2) == 2)
  }

  test("lineDegree equals the true number of adjacent edges") {
    val g = TestGraphs.connectedRandom(25, 40, seed = 22)
    val es = TestGraphs.edgeList(g)
    es.foreach { case (u, v) =>
      val adjacent = es.count { case (a, b) =>
        (a, b) != (u, v) && (a == u || b == u || a == v || b == v)
      }
      assert(LineGraph.lineDegree(g, u, v) == adjacent, s"edge ($u,$v)")
    }
  }

  test("uniformLineNeighbor only returns edges sharing exactly one endpoint") {
    val g = TestGraphs.connectedRandom(20, 30, seed = 23)
    val rng = new SplittableRandom(1)
    TestGraphs.edgeList(g).foreach { case (u, v) =>
      (1 to 50).foreach { _ =>
        val e = LineGraph.uniformLineNeighbor(g, LineGraph.edge(u, v), rng)
        val (a, b) = (LineGraph.src(e), LineGraph.dst(e))
        assert(a == u || a == v, "anchor must be an endpoint of the current edge")
        assert(b != u && b != v, "other endpoint must be outside the current edge")
        assert((0 until g.degree(a)).exists(g.neighbor(a, _) == b), "must be a real edge")
      }
    }
  }

  test("uniformLineNeighbor is uniform over line-neighbors") {
    val g = TestGraphs.connectedRandom(12, 18, seed = 24)
    val rng = new SplittableRandom(2)
    val (u, v) = TestGraphs.edgeList(g).maxBy { case (a, b) => g.degree(a) + g.degree(b) }
    val total = LineGraph.lineDegree(g, u, v)
    val n = 40000
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    (1 to n).foreach { _ =>
      val e = LineGraph.uniformLineNeighbor(g, LineGraph.edge(u, v), rng)
      counts(CsrGraph.edgeKey(LineGraph.src(e), LineGraph.dst(e))) += 1
    }
    assert(counts.size == total, s"support ${counts.size} != $total")
    val expected = n.toDouble / total
    counts.values.foreach { c =>
      assert(math.abs(c - expected) < 0.15 * expected + 4 * math.sqrt(expected),
        s"count $c vs expected $expected")
    }
  }

  test("uniformLineNeighbor rejects isolated line-graph nodes") {
    val single = CsrGraph.fromEdges(2, Seq((0, 1)))
    val rng = new SplittableRandom(3)
    intercept[IllegalArgumentException](
      LineGraph.uniformLineNeighbor(single, LineGraph.edge(0, 1), rng))
  }
}
