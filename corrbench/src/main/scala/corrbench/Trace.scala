package corrbench

import scala.collection.mutable

/** Spans and counters recorded by the benchmark around its calls into the
  * program's layers. Disabled, `span` only evaluates its body, so the
  * end-to-end runs carry no per-call timers.
  *
  * Every span belongs to the operation (column, query, candidate list or
  * pair) whose id is in `op` when it starts; that operation is the span's
  * parent. Spans stay in memory and are written out once, at the end.
  */
final class Trace(val enabled: Boolean) {

  private final class Series {
    var start = new Array[Long](256)
    var dur = new Array[Long](256)
    var ops = new Array[Long](256)
    var n = 0
    def add(s: Long, d: Long, op: Long): Unit = {
      if (n == dur.length) {
        start = java.util.Arrays.copyOf(start, n * 2)
        dur = java.util.Arrays.copyOf(dur, n * 2)
        ops = java.util.Arrays.copyOf(ops, n * 2)
      }
      start(n) = s; dur(n) = d; ops(n) = op; n += 1
    }
  }

  private val origin = System.nanoTime()
  private val series = mutable.LinkedHashMap.empty[String, Series]
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  /** Id of the operation the next spans belong to. */
  var op: Long = 0L

  @inline def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = System.nanoTime()
      val a = body
      record(name, s, System.nanoTime() - s)
      a
    }

  def record(name: String, startNs: Long, durNs: Long): Unit =
    series.getOrElseUpdate(name, new Series).add(startNs - origin, durNs, op)

  def count(name: String, v: Double): Unit =
    if (enabled) counters(name) = counters.getOrElse(name, 0.0) + v

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  /** Durations of every span named `name`, in nanoseconds. */
  def durations(name: String): Array[Double] =
    series.get(name).map(s => Array.tabulate(s.n)(i => s.dur(i).toDouble)).getOrElse(Array.empty)

  def totalNs(name: String): Double = durations(name).sum

  def toJson: Json.Obj = Json.obj(
    "counters" -> Json.Obj(counters.toSeq.map { case (k, v) => k -> Json.num(v) }),
    "spans" -> Json.Obj(series.toSeq.map { case (name, s) =>
      val d = durations(name)
      val q = Stats.tailQuantile(d.length)
      name -> Json.obj(
        "count" -> Json.num(s.n),
        "p50_ns" -> Json.num(Stats.quantile(d, 0.5)),
        "tail_quantile" -> Json.num(q),
        "tail_ns" -> Json.num(Stats.quantile(d, q)),
        "total_ns" -> Json.num(d.sum),
        "start_ns" -> Json.Arr(Array.tabulate(s.n)(i => Json.num(s.start(i)))),
        "dur_ns" -> Json.Arr(Array.tabulate(s.n)(i => Json.num(s.dur(i)))),
        "op" -> Json.Arr(Array.tabulate(s.n)(i => Json.num(s.ops(i)))),
      )
    }),
  )
}

object Stats {

  /** Nearest-rank quantile; NaN for an empty sample. */
  def quantile(xs: Array[Double], q: Double): Double = {
    if (xs.isEmpty || q.isNaN) return Double.NaN
    val s = xs.sorted
    s(math.max(0, math.min(s.length - 1, math.ceil(q * s.length).toInt - 1)))
  }

  def median(xs: Array[Double]): Double = quantile(xs, 0.5)

  /** The highest quantile with at least ten samples beyond it; NaN below
    * forty samples, where a tail would not be a tail.
    */
  def tailQuantile(n: Int): Double = if (n < 40) Double.NaN else 1.0 - 10.0 / n

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  /** Two-pass Pearson correlation, written apart from the program's. */
  def pearson(x: Array[Double], y: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return Double.NaN
    val mx = x.sum / n; val my = y.sum / n
    var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < n) {
      val dx = x(i) - mx; val dy = y(i) - my
      sxx += dx * dx; syy += dy * dy; sxy += dx * dy
      i += 1
    }
    if (sxx == 0.0 || syy == 0.0) Double.NaN else sxy / math.sqrt(sxx * syy)
  }

  /** SplitMix64 finalizer: the benchmark's deterministic source of input bits. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def mix(a: Long, b: Long, c: Long): Long = mix(mix(mix(a) ^ b) ^ c)

  /** A double in [0, 1) from 53 bits of `bits`. */
  def unit(bits: Long): Double = (bits >>> 11).toDouble / (1L << 53).toDouble
}
