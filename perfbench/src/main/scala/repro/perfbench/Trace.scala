package repro.perfbench

import scala.collection.mutable

/** One timed interval of a traced run. Times are `System.nanoTime` values.
  *
  * @param parent id of the enclosing span, or -1 for a root span
  */
final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long) {
  def durationNs: Long = end - start
}

/** In-memory span recorder. Spans nest by call structure (the benchmark is
  * single-threaded on the driver), share one run id, and are written out
  * once the run ends. A disabled tracer only runs the body.
  */
final class Tracer(var enabled: Boolean, val runId: String) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  def spans: IndexedSeq[Span] = done.toIndexedSeq

  /** Drop every recorded span (between measured phases). */
  def clear(): Unit = done.clear()
}

object Tracer {

  /** Self time of each span: its duration minus the part of its interval
    * covered by its direct children (overlapping children count once).
    */
  def selfTimesNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (c.start max s.start, c.end min s.end))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var curStart = Long.MinValue
      var curEnd = Long.MinValue
      for ((a, b) <- kids) {
        if (a > curEnd) {
          if (curEnd > curStart) covered += curEnd - curStart
          curStart = a; curEnd = b
        } else curEnd = curEnd max b
      }
      if (curEnd > curStart) covered += curEnd - curStart
      s.id -> (s.durationNs - covered)
    }.toMap
  }

  /** Mean cost of recording one span around an empty body, in nanoseconds. */
  def spanCostNs(): Double = {
    val n = 200000
    val t = new Tracer(true, "probe")
    var sink = 0L
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) { sink += t.span("probe")(i); i += 1 }
    val ns = (System.nanoTime() - t0).toDouble / n
    if (sink < 0) println(sink) // keeps the loop from being optimised away
    ns
  }

  /** Total duration and total self time per span name, in nanoseconds. */
  def byName(spans: Seq[Span]): Map[String, (Int, Long, Long)] = {
    val self = selfTimesNs(spans)
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> ((ss.size, ss.map(_.durationNs).sum, ss.map(s => self(s.id)).sum))
    }
  }

  /** One JSON object per line: run id, span id, parent, name, start and end
    * (ns, relative to the earliest span) and self time.
    */
  def toJsonLines(runId: String, spans: Seq[Span]): Iterator[String] = {
    val t0 = if (spans.isEmpty) 0L else spans.map(_.start).min
    val self = selfTimesNs(spans)
    spans.sortBy(_.start).iterator.map { s =>
      Json.obj(Seq("run" -> Json.str(runId), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_ns" -> (s.start - t0).toString,
        "end_ns" -> (s.end - t0).toString, "self_ns" -> self(s.id).toString))
    }
  }
}

/** A growable sample of durations in nanoseconds. */
final class Samples {
  private var buf = new Array[Long](1024)
  private var n = 0

  def add(ns: Long): Unit = {
    if (n == buf.length) buf = java.util.Arrays.copyOf(buf, n * 2)
    buf(n) = ns
    n += 1
  }

  def size: Int = n

  /** Nearest-rank percentile, `p` in (0, 100]. */
  def percentileNs(p: Double): Double = {
    require(n > 0, "no samples")
    val sorted = java.util.Arrays.copyOf(buf, n)
    java.util.Arrays.sort(sorted)
    sorted(math.max(0, math.ceil(p / 100.0 * n).toInt - 1)).toDouble
  }

  /** Time `body` and record its duration. */
  def time[T](body: => T): T = {
    val t0 = System.nanoTime()
    try body finally add(System.nanoTime() - t0)
  }
}

/** Minimal JSON rendering: values are pre-rendered strings. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
