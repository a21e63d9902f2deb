package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Bookkeeping of ops (one dataset build, one NRMSE grid or one bounds row).
  * An op fails if it throws or if an output check on its result fails; each
  * op counts at most once.
  */
final class Ops {
  private val attempted = mutable.LinkedHashSet.empty[String]
  private val failed = mutable.LinkedHashSet.empty[String]
  val problems: mutable.Buffer[String] = mutable.Buffer.empty

  def apply[A](name: String)(body: => A): Option[A] = {
    attempted += name
    try Some(body)
    catch { case NonFatal(e) => fail(name, s"threw $e"); None }
  }

  def check(name: String, ok: Boolean, what: => String): Unit = {
    attempted += name
    if (!ok) fail(name, what)
  }

  def fail(name: String, what: String): Unit = {
    failed += name
    problems += s"$name: $what"
    Console.err.println(s"[perfbench] FAILED $name: $what")
  }

  def nAttempted: Int = attempted.size
  def nFailed: Int = failed.size
}

/** Per-span Spark counters. Jobs are attributed to the span whose name was
  * set as a thread-local property when they were submitted, so the
  * asynchronous listener bus cannot move work between spans.
  */
final class LayerListener extends SparkListener {
  final class Counts { var jobs = 0; var tasks = 0L; var taskMs = 0L; var shuffleBytes = 0L }

  private val stageSpan = mutable.Map.empty[Int, String]
  private val counts = mutable.Map.empty[String, Counts]
  private val jobSpan = mutable.Map.empty[Int, String]
  @volatile private var markerEnded = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(LayerListener.Key)))
      .getOrElse(LayerListener.Unattributed)
    jobSpan(e.jobId) = span
    e.stageIds.foreach(stageSpan(_) = span)
    counts.getOrElseUpdate(span, new Counts).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobSpan.get(e.jobId).contains(LayerListener.Marker)) markerEnded = true
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = counts.getOrElseUpdate(stageSpan.getOrElse(e.stageId, LayerListener.Unattributed), new Counts)
    c.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      c.taskMs += m.executorRunTime
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Blocks until every event posted before this call has been delivered:
    * runs a marker job and waits for its end event, which the FIFO listener
    * bus delivers after all earlier events.
    */
  def drain(sc: SparkContext): Unit = {
    sc.setLocalProperty(LayerListener.Key, LayerListener.Marker)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(LayerListener.Key, null)
    val deadline = System.nanoTime() + 30e9.toLong
    while (!markerEnded && System.nanoTime() < deadline) Thread.sleep(10)
    synchronized(counts.remove(LayerListener.Marker))
  }

  def of(span: String): Counts = synchronized(counts.getOrElse(span, new Counts))
}

object LayerListener {
  val Key = "perfbench.span"
  val Unattributed = "(unattributed)"
  private val Marker = "(marker)"
}

/** Wall-clock spans around the calls into each layer; each span also tags
  * the Spark jobs it submits for [[LayerListener]].
  */
final class Tracer(sc: SparkContext) {
  private val seconds = mutable.LinkedHashMap.empty[String, Double]
  private val calls = mutable.Map.empty[String, Int]

  def span[A](name: String)(body: => A): A = {
    sc.setLocalProperty(LayerListener.Key, name)
    val t0 = System.nanoTime()
    try body
    finally {
      seconds(name) = seconds.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e9
      calls(name) = calls.getOrElse(name, 0) + 1
      sc.setLocalProperty(LayerListener.Key, null)
    }
  }

  def secondsOf(name: String): Double = seconds.getOrElse(name, 0.0)
  def callsOf(name: String): Int = calls.getOrElse(name, 0)
}
