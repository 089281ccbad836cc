package corrbench

import org.apache.spark.sql.SparkSession

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable

/** One workload: its inputs, the program's set-up, a round of timed
  * operations, and the checks on what the round produced.
  */
trait Workload {
  def needsSpark: Boolean
  /** Operations one round attempts; `attempted` counts these. */
  def opsPerRound: Int
  /** Units of work in one round; `work_per_s` divides it by `roundCostNs`. */
  def workPerRound: Double
  /** What one round costs, in ns: by default the median CPU time of this
    * thread over a round, which leaves out the time the host gives other guests.
    */
  def roundCostNs(lat: Latencies, roundNs: Array[Double]): Double = Stats.median(lat("round_thread_cpu"))
  /** Seconds of untimed whole rounds before timing starts. */
  def warmupSeconds: Double = Main.WarmupSeconds
  /** Makes the inputs and the reference results. Not timed; runs while Spark starts. */
  def inputs(): Unit
  /** Hands the inputs to Spark, when the workload needs it. Not timed. */
  def load(spark: Option[SparkSession]): Unit = ()
  /** One set-up of the program: sketch builds and index builds. */
  def setup(spark: Option[SparkSession], t: Trace): Unit
  /** One round of the timed operations; each operation's latency goes to `lat`. */
  def round(spark: Option[SparkSession], t: Trace, lat: Latencies): Unit
  /** Checks the outputs of the last round. */
  def check(): Checks.Report
  /** A digest of the last round's outputs, to show every round repeats the checked one. */
  def digest(): Long
  /** (p50, p90) of one operation's latency in microseconds. */
  def opLatencyUs(lat: Latencies): (Double, Double) = {
    val xs = lat("op")
    (Stats.quantile(xs, 0.5) / 1e3, Stats.quantile(xs, 0.9) / 1e3)
  }
  /** The workload's own metrics, printed by name above the result line. */
  def named(lat: Latencies, roundNs: Array[Double]): Seq[(String, Double, String)]
  /** Per-layer metrics of a traced run that this workload works out itself. */
  def layers(t: Trace): Seq[(String, Double)]
  /** Input properties an optimisation may depend on, for the README. */
  def profile(): Seq[(String, String)]
}

/** CPU time of the calling thread, in nanoseconds. */
object Cpu {
  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
  def thread(): Long = threads.getCurrentThreadCpuTime
}

/** Latency samples in nanoseconds, by series name. */
final class Latencies {
  private val m = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  def add(name: String, ns: Double): Unit = m.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ns
  def apply(name: String): Array[Double] = m.get(name).map(_.toArray).getOrElse(Array.empty)
}

object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  val SetupReps = 5
  val WarmupSeconds = 5.0

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
  }

  def workload(name: String, seed: Long): Workload = name match {
    case "build"    => new BuildWorkload(seed)
    case "query"    => new QueryWorkload(seed)
    case "rank"     => new RankWorkload(seed)
    case "estimate" => new EstimateWorkload(seed)
    case other      => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = workload(args.workload, args.seed)
    var spark: Option[SparkSession] = None
    val code =
      try {
        val line = run(args, w, () => { spark = Some(SparkSetup.start()); spark })
        spark.foreach(_.stop()); spark = None
        println(line)
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.foreach(_.stop())
    System.out.flush()
    sys.exit(code)
  }

  private def timedNs(body: => Unit): Double = { val t0 = System.nanoTime(); body; (System.nanoTime() - t0).toDouble }

  /** Wall time and CPU time of this thread, in ns, of one call of `body`. */
  private def timedCpu(body: => Unit): (Double, Double) = {
    val c0 = Cpu.thread()
    val wall = timedNs(body)
    (wall, (Cpu.thread() - c0).toDouble)
  }

  /** Runs whole rounds until `seconds` of round wall time have passed; adds
    * each round's CPU time of this thread to `lat` as `round_thread_cpu`.
    */
  private def rounds(seconds: Double, lat: Latencies)(round: => Unit): Array[Double] = {
    val out = mutable.ArrayBuffer.empty[Double]
    while (out.sum < seconds * 1e9) {
      val c0 = Cpu.thread()
      out += timedNs(round)
      lat.add("round_thread_cpu", (Cpu.thread() - c0).toDouble)
    }
    out.toArray
  }

  def run(args: Args, w: Workload, startSpark: () => Option[SparkSession]): String = {
    val off = new Trace(false)
    val tr = if (args.trace) new Trace(true) else off
    // A JVM loads Spark's classes on the first, cold SparkSession start, which
    // runs while the inputs are made on this thread. SparkSession start counts
    // as set-up: it is stopped and started again SetupReps times, and the
    // median warm start goes into setup_s; the cold one is only printed.
    // setup_s is CPU time of this thread, for the reason `roundCostNs` gives.
    var spark: Option[SparkSession] = None
    var coldStartNs = 0.0
    val starter = new Thread(() => if (w.needsSpark) coldStartNs = timedNs { spark = startSpark() })
    starter.start()
    val inputsNs = timedNs(w.inputs())
    starter.join()
    if (w.needsSpark && spark.isEmpty) throw new IllegalStateException("SparkSession did not start")
    val (startNs, startCpuNs) =
      if (!w.needsSpark) (Array(0.0), Array(0.0))
      else Array.fill(SetupReps) { spark.foreach(_.stop()); timedCpu { spark = startSpark() } }.unzip
    val loadNs = timedNs(w.load(spark))
    val (setupNs, setupCpuNs) = Array.fill(SetupReps)(timedCpu(w.setup(spark, tr))).unzip
    val setupS = (Stats.median(startCpuNs) + Stats.median(setupCpuNs)) / 1e9
    val setupWallS = (Stats.median(startNs) + Stats.median(setupNs)) / 1e9

    // Untimed rounds warm the JIT; their outputs' digest must match the last
    // timed round's, whose outputs are checked.
    val warmNs = { val warm = new Latencies; rounds(w.warmupSeconds, warm)(w.round(spark, off, warm)).sum }
    val first = w.digest()
    val lat = new Latencies
    val traced = new Latencies
    val roundNs =
      if (!args.trace) rounds(args.seconds, lat)(w.round(spark, off, lat))
      else rounds(args.seconds / 2, lat)(w.round(spark, off, lat)) ++
        rounds(args.seconds / 2, traced)(w.round(spark, tr, traced))
    var report: Checks.Report = null
    val checkNs = timedNs { report = w.check() }
    println(f"# phases: spark cold start ${coldStartNs / 1e9}%.2f s, inputs ${inputsNs / 1e9}%.2f s, " +
      f"spark warm starts ${startNs.map(ns => f"${ns / 1e9}%.2f").mkString(" ")} s, " +
      f"load ${loadNs / 1e9}%.2f s, set-ups ${setupNs.map(ns => f"${ns / 1e9}%.2f").mkString(" ")} s, " +
      f"warm-up ${warmNs / 1e9}%.2f s, " +
      f"rounds ${roundNs.map(ns => f"${ns / 1e9}%.2f").mkString(" ")} s, checks ${checkNs / 1e9}%.2f s, " +
      f"JVM up ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.2f s")
    val problems = report.problems ++
      (if (w.digest() == first) Nil else Seq("outputs of the last round differ from the warm-up round's"))

    val attempted = roundNs.length.toLong * w.opsPerRound
    val failed = roundNs.length.toLong * report.failedPerRound
    report.notes.foreach(n => println(s"# note: $n"))
    problems.foreach(p => println(s"# FAILED CHECK: $p"))
    println(s"# workload=${args.workload} seed=${args.seed} rounds=${roundNs.length} " +
      s"attempted=$attempted failed=$failed correct=${problems.isEmpty}")
    w.profile().foreach { case (k, v) => println(s"# input $k = $v") }

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) {
        val (p50, p90) = w.opLatencyUs(lat)
        val e2e = Seq(
          ("setup_s", setupS, "s"),
          ("work_per_s", w.workPerRound / (w.roundCostNs(lat, roundNs) / 1e9), "1/s"),
          ("op_us_p50", p50, "us"),
          ("op_us_p90", p90, "us"),
        )
        val wall = Seq(("setup_wall_s", setupWallS, "s"),
          ("work_per_wall_s", w.workPerRound / (Stats.median(roundNs) / 1e9), "1/s"))
        (e2e ++ wall ++ w.named(lat, roundNs)).foreach { case (k, v, u) => println(s"# $k = $v $u") }
        e2e
      } else {
        val overhead = w.opLatencyUs(traced)._1 / w.opLatencyUs(lat)._1
        val ls = Layers.all(tr, w.layers(tr)) :+ ("trace.overhead", overhead)
        val path = writeTrace(args, tr, ls, overhead)
        println(s"# trace written to $path; traced/untraced op_us_p50 = $overhead")
        ls.foreach { case (k, v) => println(s"# $k = $v") }
        ls.map { case (k, v) => (k, v, Layers.unitOf(k)) }
      }

    Json.write(Json.obj(
      "correct" -> Json.Bool(problems.isEmpty),
      "attempted" -> Json.num(attempted.toDouble),
      "failed" -> Json.num(failed.toDouble),
      "metrics" -> Json.Obj(metrics.map { case (k, v, u) =>
        k -> Json.obj("value" -> Json.num(v), "unit" -> Json.Str(u))
      }),
    ))
  }

  private def writeTrace(args: Args, t: Trace, layers: Seq[(String, Double)], overhead: Double): String = {
    val dir = new File(SparkSetup.workDir, "trace")
    dir.mkdirs()
    val f = new File(dir, s"${args.workload}-seed${args.seed}.json")
    val body = Json.obj(
      "workload" -> Json.Str(args.workload),
      "seed" -> Json.num(args.seed.toDouble),
      "seconds_traced" -> Json.num(args.seconds / 2),
      "overhead_traced_over_untraced_op_p50" -> Json.num(overhead),
      "per_layer" -> Json.Obj(layers.map { case (k, v) => k -> Json.num(v) }),
      "trace" -> t.toJson,
    )
    Files.write(f.toPath, Json.write(body).getBytes(StandardCharsets.UTF_8))
    f.getPath
  }
}
