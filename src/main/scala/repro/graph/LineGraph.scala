package repro.graph

import java.util.SplittableRandom

/** Line-graph substrate for the EX-* baselines.
  *
  * The baselines of Li et al. walk on G' = (H, R), where H = E(G) and two
  * G'-nodes are adjacent iff the corresponding G-edges share an endpoint.
  * G' is never materialized: a G'-node is a G-edge (u,v), its G'-degree is
  * d'(u,v) = d(u)+d(v)-2, and a uniform G'-neighbor is drawn directly from
  * the CSR adjacency of G (pick an endpoint ∝ its remaining slots, then a
  * uniform *other* edge at that endpoint via rejection — exact because the
  * graph has no multi-edges).
  *
  * A walk state is an oriented G-edge (u,v) packed into one Long by [[edge]]
  * (u in the high, v in the low 32 bits), so a transition allocates nothing.
  */
object LineGraph {

  /** The oriented G-edge (u,v) as a packed walk state. */
  def edge(u: Int, v: Int): Long = (u.toLong << 32) | (v & 0xffffffffL)

  /** First endpoint of a packed edge. */
  def src(e: Long): Int = (e >>> 32).toInt

  /** Second endpoint of a packed edge. */
  def dst(e: Long): Int = e.toInt

  /** The degree of edge (u,v) in G'. */
  def lineDegree(g: CsrGraph, u: Int, v: Int): Int = g.degree(u) + g.degree(v) - 2

  /** The degree of the packed edge `e` in G'. */
  def lineDegree(g: CsrGraph, e: Long): Int = lineDegree(g, src(e), dst(e))

  /** A uniform random G'-neighbor of the packed G'-node `e`: an edge sharing
    * exactly one endpoint with it. Requires d'(e) > 0.
    *
    * Returned packed and oriented as (sharedEndpoint, otherEndpoint).
    */
  def uniformLineNeighbor(g: CsrGraph, e: Long, rng: SplittableRandom): Long = {
    val u = src(e); val v = dst(e)
    val du = g.degree(u)
    val total = du + g.degree(v) - 2
    require(total > 0, s"edge ($u,$v) is isolated in the line graph")
    // Choose the shared endpoint with probability proportional to its count
    // of other incident edges, then a uniform other edge at that endpoint.
    val atU = rng.nextInt(total) < du - 1
    val anchor = if (atU) u else v
    val excluded = if (atU) v else u
    var w = excluded
    while (w == excluded) w = g.neighbor(anchor, rng.nextInt(g.degree(anchor)))
    edge(anchor, w)
  }
}
