package corrbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AggFn, CorrelationSketch, Hashing, KV, SketchBuffer, SparkSketches}

import scala.collection.mutable

/** Where each row of the `build` collection comes from. Every row is a pure
  * function of (seed, global row index), so Spark generates its partitions
  * from `spark.range`, and the very same columns are made in memory for
  * the local build and the reference.
  *
  * Columns 0..47 hold keys "c<j>:k<i>"; their distinct-key counts are fixed
  * and spread log-evenly over 512..32768, so most exceed k = 1024 and the
  * work does not depend on the seed. A quarter more rows repeat keys drawn
  * by the seed. The last column is a small exact probe that holds two
  * distinct key strings with the same 32-bit `h`.
  */
final case class BuildLayout(seed: Long, distinct: Array[Int], rows: Array[Int], probeKeys: Array[String]) {
  val offsets: Array[Long] = rows.scanLeft(0L)(_ + _)
  def totalRows: Long = offsets.last
  def columns: Int = rows.length
  def id(j: Int): String = if (j == columns - 1) "probe" else s"c$j"

  def key(j: Int, r: Int): String = {
    val d = distinct(j)
    val i = if (r < d) r else (Stats.unit(Stats.mix(seed, j, r)) * d).toInt
    if (j == columns - 1) probeKeys(i) else s"c$j:k$i"
  }

  def value(j: Int, r: Int): Double = (Stats.unit(Stats.mix(~seed, j, r)) * 2 - 1) * 100 + j

  def row(i: Long): (String, String, Double) = {
    var j = java.util.Arrays.binarySearch(offsets, i)
    j = if (j >= 0) j else -j - 2
    val r = (i - offsets(j)).toInt
    (id(j), key(j, r), value(j, r))
  }
}

object BuildLayout {
  val Seeded = 48

  def apply(seed: Long): BuildLayout = {
    val d = Array.tabulate(Seeded)(j => math.round(512 * math.pow(64, j / (Seeded - 1.0))).toInt) :+ 256
    val (a, b) = collidingPair()
    val probe = Array(a, b) ++ (2 until 256).map(i => s"probe:$i")
    BuildLayout(seed, d, d.map(x => x + x / 4), probe)
  }

  /** Two distinct strings with equal `Hashing.h`, found by a fixed search
    * that does not depend on the seed; a pair of fresh strings if `h` has
    * none among the first 2^21 candidates.
    */
  def collidingPair(): (String, String) = {
    val seen = mutable.HashMap.empty[Int, String]
    var i = 0
    while (i < (1 << 21)) {
      val s = s"probe-$i"
      val h = Hashing.h(s)
      seen.get(h) match {
        case Some(prev) => return (prev, s)
        case None       => seen(h) = s
      }
      i += 1
    }
    ("probe-a", "probe-b")
  }
}

final class BuildWorkload(seed: Long) extends Workload {
  import BuildWorkload.K

  private val layout = BuildLayout(seed)
  private val cols = layout.columns
  private var keys: Array[Array[String]] = _
  private var values: Array[Array[Double]] = _
  private var refs: Array[Checks.ColumnRef] = _
  private var df: DataFrame = _
  private var sparkOut: Map[String, CorrelationSketch] = Map.empty
  private val localOut = new Array[CorrelationSketch](cols)
  private var sketchBytes = 0.0

  val needsSpark = true
  override def warmupSeconds: Double = 10
  def opsPerRound: Int = 2 * cols
  def workPerRound: Double = 2.0 * layout.totalRows

  def inputs(): Unit = {
    keys = Array.tabulate(cols)(j => Array.tabulate(layout.rows(j))(r => layout.key(j, r)))
    values = Array.tabulate(cols)(j => Array.tabulate(layout.rows(j))(r => layout.value(j, r)))
    refs = Array.tabulate(cols)(j => Checks.columnRef(layout.id(j), keys(j), values(j), K))
  }

  override def load(spark: Option[SparkSession]): Unit = {
    val s = spark.get
    import s.implicits._
    val lay = layout
    df = s.range(0, lay.totalRows, 1, 4 * SparkSetup.threads).map(i => lay.row(i))
      .toDF("pair", "key", "value").cache()
    df.count()
  }

  /** Nothing to build before the first timed operation but the SparkSession. */
  def setup(spark: Option[SparkSession], t: Trace): Unit = ()

  /** One round: `buildAll` over the collection, then `fromColumns` per column.
    * Besides wall time it records CPU time: of the driver thread and Spark's
    * tasks for `buildAll`, and of this thread around each `fromColumns`.
    * CPU time leaves out the time the machine's host gives other guests,
    * which spread `build`'s wall times widely from run to run.
    */
  def round(spark: Option[SparkSession], t: Trace, lat: Latencies): Unit = {
    val s = spark.get
    val cost = SparkSetup.traced(s, t, layout.totalRows) {
      SparkSketches.buildAll(df, "pair", "key", "value", K)
    }
    sparkOut = cost.result
    val sparkCpu = cost.cpuNs
    lat.add("spark", cost.wallNs)
    lat.add("spark_cpu", sparkCpu)
    if (t.enabled) {
      import s.implicits._
      t.span("spark.tokv") { SparkSketches.toKV(df, "pair", "key", "value").as[KV].rdd.count() }
    }
    var local = 0.0
    var localCpu = 0.0
    var j = 0
    while (j < cols) {
      t.op = j
      val c0 = System.nanoTime()
      val u0 = Cpu.thread()
      localOut(j) = if (t.enabled) tracedBuild(t, j) else CorrelationSketch.fromColumns(keys(j), values(j), K)
      val cpu = (Cpu.thread() - u0).toDouble
      local += (System.nanoTime() - c0).toDouble
      localCpu += cpu
      lat.add("op", cpu)
      j += 1
    }
    lat.add("local", local)
    lat.add("local_cpu", localCpu)
    lat.add("round_cpu", sparkCpu + localCpu)
  }

  /** Per round, the CPU time of `buildAll` plus that of the local builds. */
  override def roundCostNs(lat: Latencies, roundNs: Array[Double]): Double = Stats.median(lat("round_cpu"))

  /** `fromColumns` taken apart into its layer calls: hash, update, result. */
  private def tracedBuild(t: Trace, j: Int): CorrelationSketch = {
    val ks = keys(j); val vs = values(j); val n = ks.length
    val hs = t.span("core.h") {
      val a = new Array[Int](n)
      var i = 0
      while (i < n) { a(i) = Hashing.h(ks(i)); i += 1 }
      a
    }
    val buf = new SketchBuffer(K)
    t.span("core.update") {
      var i = 0
      while (i < n) { buf.updateHashed(hs(i), vs(i)); i += 1 }
    }
    val sk = t.span("core.result") { buf.result(AggFn.Mean) }
    t.count("core.rows", n)
    t.count("core.kept", sk.size)
    t.count("core.distinct", refs(j).distinct)
    sk
  }

  def check(): Checks.Report = {
    val problems = mutable.ArrayBuffer.empty[String]
    val notes = mutable.ArrayBuffer.empty[String]
    var failed = 0
    if (sparkOut.keySet != (0 until cols).map(layout.id).toSet)
      problems += s"buildAll returned ${sparkOut.size} sketches for $cols columns"
    for (j <- 0 until cols; sp <- sparkOut.get(layout.id(j))) {
      val ref = refs(j)
      if (ref.collisions.nonEmpty) {
        // Both the Spark and the local sketch merge the colliding keys.
        failed += 2
        ref.collisions.foreach { case (a, b, h) =>
          notes += s"h collision: column ${ref.id} keys '$a' and '$b' share h=$h and are merged into one sketch entry"
        }
      } else problems ++= Checks.sketchMatches(ref, localOut(j), K) ++ Checks.sketchMatches(ref, sp, K)
      problems ++= Checks.sameSketch(ref.id, sp, localOut(j))
    }
    sketchBytes = Inputs.kryoBytes(localOut)
    Checks.Report(problems.toSeq, failed, notes.toSeq)
  }

  def digest(): Long = {
    // Spark merges partial sums in no fixed order, so its values may differ in
    // the last bits from round to round; keys and counts may not.
    val sp = sparkOut.toSeq.sortBy(_._1).map { case (id, s) => (id, s.keyHashes.toSeq, s.rows, s.exact) }
    val lo = localOut.toSeq.map(s => (s.keyHashes.toSeq, s.values.toSeq, s.rows, s.exact))
    (sp, lo).hashCode.toLong
  }

  def named(lat: Latencies, roundNs: Array[Double]): Seq[(String, Double, String)] = Seq(
    ("build_rows_per_s", layout.totalRows / (Stats.median(lat("spark")) / 1e9), "rows/s"),
    ("build_local_rows_per_s", layout.totalRows / (Stats.median(lat("local")) / 1e9), "rows/s"),
    ("build_rows_per_cpu_s", layout.totalRows / (Stats.median(lat("spark_cpu")) / 1e9), "rows/s"),
    ("build_local_rows_per_cpu_s", layout.totalRows / (Stats.median(lat("local_cpu")) / 1e9), "rows/s"),
    ("sketch_bytes", sketchBytes, "bytes"),
  )

  def layers(t: Trace): Seq[(String, Double)] = Seq(
    "core.kept_per_distinct" -> t.counter("core.kept") / t.counter("core.distinct"),
    "core.truncated_sketches" -> localOut.count(!_.exact).toDouble,
    "core.sketch_bytes" -> sketchBytes,
    "core.h_collisions" -> refs.map(_.collisions.size).sum.toDouble,
  )

  def profile(): Seq[(String, String)] = Seq(
    "columns" -> cols.toString,
    "rows" -> layout.totalRows.toString,
    "share of columns with more distinct keys than k" -> f"${refs.count(_.distinct > K).toDouble / cols}%.3f",
    "share of rows with a repeated key" -> f"${1 - refs.map(_.distinct).sum.toDouble / layout.totalRows}%.3f",
    "share of exact sketches" -> f"${refs.count(_.distinct <= K).toDouble / cols}%.3f",
    "h collisions merged into a sketch" -> refs.map(_.collisions.size).sum.toString,
  )
}

object BuildWorkload {
  val K = 1024
}
