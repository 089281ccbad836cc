package corrbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import java.io.File
import java.util.concurrent.CountDownLatch
import scala.collection.mutable

object SparkSetup {

  /** Local Spark threads: half the machine's cores, at most two and at least
    * one, so that the driver thread, the JIT and the GC keep cores of their own.
    */
  val threads: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()) / 2)

  /** Scratch space inside the checkout; the launcher points the JVM's temp dir here too. */
  val workDir: File = new File(sys.props.getOrElse("corrbench.work", ".bench_build/corrbench/work"))

  def start(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("corrbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .config("spark.sql.shuffle.partitions", (4 * threads).toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** What one `buildAll` cost: wall time, and CPU time of the driver thread
    * plus that of the tasks it ran (deserialization and run, as Spark's
    * listener reports them). The JIT's and the GC's threads are not counted.
    */
  final case class Cost[A](result: A, wallNs: Double, cpuNs: Double)

  /** Runs `body` (one `SparkSketches.buildAll`) with a listener that collects
    * the task metrics of the jobs it ran; when tracing, adds them to the
    * trace's `spark.*` counters.
    */
  def traced[A](spark: SparkSession, t: Trace, rows: Long)(body: => A): Cost[A] = {
    val l = new TaskTotals
    val sc = spark.sparkContext
    sc.addSparkListener(l)
    try {
      val t0 = System.nanoTime()
      val wall0 = System.currentTimeMillis()
      val c0 = Cpu.thread()
      val a = body
      val driverCpuNs = Cpu.thread() - c0
      val wallNs = System.nanoTime() - t0
      val wall1 = System.currentTimeMillis()
      // Listener events arrive in order: once this marker job has ended,
      // every task of `body` has been seen.
      sc.setLocalProperty(TaskTotals.Marker, "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(TaskTotals.Marker, null)
      l.markerEnded.await()
      val tasks = l.synchronized(l.tasks.filter(x => x.launch >= wall0 && x.finish <= wall1).toSeq)
      if (t.enabled) {
        t.record("spark.build", t0, wallNs)
        t.count("spark.calls", 1)
        t.count("spark.rows", rows.toDouble)
        t.count("spark.wall_ns", wallNs.toDouble)
        t.count("spark.tasks", tasks.size)
        t.count("spark.task_run_ms", tasks.map(_.runMs).sum)
        t.count("spark.task_cpu_ms", tasks.map(_.cpuNs).sum / 1e6)
        t.count("spark.gc_ms", tasks.map(_.gcMs).sum)
        t.count("spark.task_deser_ms", tasks.map(_.deserMs).sum)
        t.count("spark.shuffle_write_bytes", tasks.map(_.shuffleWrite).sum)
        t.count("spark.shuffle_read_bytes", tasks.map(_.shuffleRead).sum)
        t.count("spark.result_bytes", tasks.map(_.result).sum)
      }
      Cost(a, wallNs.toDouble, driverCpuNs + tasks.map(x => x.deserCpuNs + x.cpuNs).sum)
    } finally sc.removeSparkListener(l)
  }

  private final case class TaskRec(launch: Long, finish: Long, runMs: Double, cpuNs: Double, gcMs: Double,
                                   deserMs: Double, deserCpuNs: Double, shuffleWrite: Double, shuffleRead: Double,
                                   result: Double)

  private object TaskTotals { val Marker = "corrbench.marker" }

  private final class TaskTotals extends SparkListener {
    val tasks = mutable.ArrayBuffer.empty[TaskRec]
    val markerEnded = new CountDownLatch(1)
    private var markerJob = -1

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (e.properties != null && e.properties.getProperty(TaskTotals.Marker) != null) markerJob = e.jobId
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (e.jobId == markerJob) markerEnded.countDown()
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) tasks += TaskRec(e.taskInfo.launchTime, e.taskInfo.finishTime,
        m.executorRunTime.toDouble, m.executorCpuTime.toDouble, m.jvmGCTime.toDouble,
        m.executorDeserializeTime.toDouble, m.executorDeserializeCpuTime.toDouble, m.shuffleWriteMetrics.bytesWritten.toDouble,
        m.shuffleReadMetrics.totalBytesRead.toDouble, m.resultSize.toDouble)
    }
  }
}
